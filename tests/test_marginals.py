"""Term marginals built from the auxiliary and the law, without the joint.

The searches, the capacities and the grid oracle evaluate every entropy
term on a marginal contracted directly from (theta, law); only
``single_letter_joint`` still builds the (u, x, y1, y2, z) joint.  These
tests hold the two providers of ``regions._evaluate`` to each other and
check that no search path reaches the joint builder; the entropy kernel
is held bitwise to its masked form.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtgp import regions
from wtgp.channels import GpModel, WiretapModel, analogous_gpbc
from wtgp.pmf import Axis, FinitePmf, JointPmf
from wtgp.regions import (
    _EXPRESSIONS,
    SearchParams,
    aux_from_array,
    brute_force_oracle,
    gp_capacity,
    reduce_auxiliary,
    region_frontier,
    single_letter_joint,
    sweep_directions,
    two_auxiliary_bounds,
    wt_capacity,
)

TOL = 1e-13
# axis positions 1-5 of a (b, u, x, y1, y2, z) batch
KEEPS = [
    keep for r in range(1, 6) for keep in itertools.combinations(range(1, 6), r)
]

# derandomized, so that the suite draws the same examples on every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def sparse_pmfs(rng, rows, cells, sparse):
    """``rows`` pmfs over ``cells`` cells; with ``sparse``, some cells are 0."""
    mass = rng.dirichlet(np.ones(cells), size=rows)
    if sparse:
        mass[rng.random(mass.shape) < 0.3] = 0.0
        for r in np.flatnonzero(mass.sum(axis=1) == 0.0):
            mass[r, rng.integers(cells)] = 1.0
        mass /= mass.sum(axis=1, keepdims=True)
    return mass


@st.composite
def models_and_rows(draw):
    """A wiretap or GP model with alphabets of 1-3 letters and |U| 1-3,
    and one auxiliary row; law, state and auxiliary cells may be 0."""
    gp = draw(st.booleans())
    nu, nx, ny1, ny2, nz = draw(st.tuples(*[st.integers(1, 3)] * 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sparse_law, sparse_aux = draw(st.booleans()), draw(st.booleans())
    if gp:
        law = sparse_pmfs(rng, nx * nz, ny1 * ny2, sparse_law)
        q_z = sparse_pmfs(rng, 1, nz, sparse_law)[0]
        model = GpModel(state_dist=FinitePmf(q_z), law=law.reshape(nx, nz, ny1, ny2))
        theta = sparse_pmfs(rng, nz, nu * nx, sparse_aux).reshape(-1)
    else:
        law = sparse_pmfs(rng, nx, ny1 * ny2 * nz, sparse_law)
        model = WiretapModel(law=law.reshape(nx, ny1, ny2, nz))
        theta = sparse_pmfs(rng, 1, nu * nx, sparse_aux).reshape(-1)
    return model, nu, theta


@PROPERTY
@given(models_and_rows())
def test_model_marginals_match_the_summed_joint(case):
    model, nu, theta = case
    side = "gp" if isinstance(model, GpModel) else "wiretap"
    z_size = model.z_size if side == "gp" else 1
    aux = aux_from_array(side, theta, nu, model.x_size, z_size=z_size, allow_large_u=True)
    joint = single_letter_joint(model, aux).mass[None]
    marginal = regions._ModelMarginals(model, theta[None], nu)
    summed = regions._summed_down(joint)
    # every nonempty set of kept axes, not only the table's terms
    for keep in KEEPS:
        mine, ref = marginal(keep), summed(keep)
        assert mine.shape == ref.shape, keep
        assert np.abs(mine - ref).max() <= TOL, keep
    for name in _EXPRESSIONS:
        (value,) = regions._evaluate(marginal, [name])
        (ref,) = regions._evaluate(joint, [name])
        assert value.shape == (1,)
        assert abs(float(value[0]) - float(ref[0])) <= TOL, name


def masked_entropy(m):
    """The entropy kernel with 0 log 0 = 0 taken by skipping empty cells."""
    m = m.reshape(m.shape[0], -1)
    out = np.zeros_like(m)
    nz = m > 0.0
    out[nz] = m[nz] * np.log2(m[nz])
    return -out.sum(axis=1)


@PROPERTY
@given(st.integers(1, 40), st.integers(1, 200), st.integers(0, 2**32 - 1), st.booleans())
def test_entropy_kernel_is_the_masked_sum(rows, cells, seed, sparse):
    # the same products and the same row sums, so the floats are equal
    m = sparse_pmfs(np.random.default_rng(seed), rows, cells, sparse)
    assert regions._batch_entropy(m).tobytes() == masked_entropy(m).tobytes()


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def random_sd_model(rng):
    f = rng.integers(0, 2, size=2)
    rows = rng.dirichlet(np.ones(4), size=2)
    law = np.zeros((2, 2, 2, 2))
    for x in range(2):
        law[x, f[x]] = rows[x].reshape(2, 2)
    return WiretapModel(law=law)


def random_pd_coop_model(rng):
    """Binary physically-degraded informed model p(y1, z | x) B(y2 | y1)
    with a cooperation link."""
    a = rng.dirichlet(np.ones(4), size=2).reshape(2, 2, 2)  # (x, y1, z)
    b = rng.dirichlet(np.ones(2), size=2)  # (y1, y2)
    law = np.einsum("xaz,ab->xabz", a, b)
    return WiretapModel(law=law, informed_receiver=True, coop_capacity=0.1)


def test_searches_build_no_joint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a full (u, x, y1, y2, z) joint was built")

    monkeypatch.setattr(regions, "_joint_batch", refuse)
    rng = np.random.default_rng(9)
    bsc_model = WiretapModel(law=np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :])
    sd_model = random_sd_model(rng)
    coop = analogous_gpbc(random_pd_coop_model(rng))
    params = SearchParams(restarts=2, capacity_restarts=2, max_passes=3)
    dirs = sweep_directions(3)

    wt_capacity(bsc_model, params)
    gp_capacity(analogous_gpbc(bsc_model), params)
    region_frontier("SD-WT", sd_model, params, dirs)
    region_frontier("PD-IR-GP-COOP", coop, params, dirs)
    brute_force_oracle(sd_model, "SD-WT", delta=0.25, directions=dirs)
    p_vtx = JointPmf(
        [Axis("v", 2), Axis("t", 2), Axis("x", 2)],
        rng.dirichlet(np.ones(8)),
    )
    two_auxiliary_bounds(p_vtx, sd_model)
    reduce_auxiliary(p_vtx, sd_model)
    # the patch reaches the one caller that still builds the joint
    aux = aux_from_array("wiretap", np.full(4, 0.25), 2, 2)
    with pytest.raises(AssertionError, match="joint was built"):
        single_letter_joint(sd_model, aux)
