"""Term marginals as a linear map of the flat auxiliary rows.

The searches, the capacities and the grid oracle evaluate every entropy
term on the marginals of their rows through a map built once from the
single-letter joints of the identity rows at |U| = 1; they never build
the joint of a row they score.  These tests hold the map's marginals to
the summed joint, count the joints each entry point builds, and hold the
entropy kernel bitwise to its masked form.
"""

import itertools
import math
from unittest import mock

import numpy as np
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
    # the map for every nonempty set of kept axes, not only the table's terms
    with mock.patch.dict(regions._EXPRESSIONS, every=tuple((1, keep) for keep in KEEPS)):
        term_map = regions._term_map(model, nu, "every")
    keeps = term_map.terms.keeps
    assert sorted(keeps) == sorted(KEEPS)
    m = regions._marginals(model, theta[None], term_map)
    sizes = (nu,) + joint.shape[2:]
    widths = [math.prod(sizes[i - 1] for i in keep) for keep in keeps]
    for keep, mine in zip(keeps, np.split(m, np.cumsum(widths)[:-1]), strict=True):
        ref = regions._summed_down(joint, keep)
        if regions._U in keep:  # laid out (rest, u), u fastest
            ref = np.moveaxis(ref, 1, -1)
        assert mine.shape == (ref.size, 1), keep
        assert np.abs(mine[:, 0] - ref.reshape(-1)).max() <= TOL, keep
    for name in _EXPRESSIONS:
        term_map = regions._term_map(model, nu, name)
        m = regions._marginals(model, theta[None], term_map)
        (value,) = regions._evaluate(m, regions._log2(m), term_map.terms)
        terms = regions._terms([name], joint.shape[1:])
        ref_m = regions._stacked(joint, terms.keeps)
        (ref,) = regions._evaluate(ref_m, regions._log2(ref_m), terms)
        assert value.shape == (1,)
        assert abs(float(value[0]) - float(ref[0])) <= TOL, name


def masked_entropy(m, starts):
    """The entropy kernel with 0 log 0 = 0 taken by skipping empty cells."""
    out = np.zeros_like(m)
    nz = m > 0.0
    out[nz] = m[nz] * np.log2(m[nz])
    return -np.add.reduceat(out, starts)


@PROPERTY
@given(st.integers(1, 200), st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_entropy_kernel_is_the_masked_sum(cells, rows, seed, sparse):
    # the same products and the same segmented sums, so the floats are equal
    rng = np.random.default_rng(seed)
    m = sparse_pmfs(rng, rows, cells, sparse).T.copy()
    starts = np.flatnonzero(np.r_[True, rng.random(cells - 1) < 0.3])
    mine = regions._entropies(m, regions._log2(m), starts)
    assert mine.tobytes() == masked_entropy(m, starts).tobytes()


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
    # a search or the oracle builds the joints of the identity rows at
    # |U| = 1, once, for its map, and never the joint of a row it scores;
    # a reported bound is evaluated on its one row's joint
    joint_batch, built = regions._joint_batch, []

    def counted(model, theta, u_size):
        identity = u_size == 1 and np.array_equal(theta, np.eye(len(theta)))
        built.append("map" if identity else len(theta))
        return joint_batch(model, theta, u_size)

    def builds(run):
        built.clear()
        run()
        return built[:]

    monkeypatch.setattr(regions, "_joint_batch", counted)
    rng = np.random.default_rng(9)
    bsc_model = WiretapModel(law=np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :])
    sd_model = random_sd_model(rng)
    coop = analogous_gpbc(random_pd_coop_model(rng))
    params = SearchParams(restarts=2, capacity_restarts=2, max_passes=3)
    dirs = sweep_directions(3)
    sweep = ["map", 1, 1, 1]  # the map, then each direction's bounds

    assert builds(lambda: wt_capacity(bsc_model, params)) == ["map"]
    assert builds(lambda: gp_capacity(analogous_gpbc(bsc_model), params)) == ["map"]
    assert builds(lambda: region_frontier("SD-WT", sd_model, params, dirs)) == sweep
    assert builds(lambda: region_frontier("PD-IR-GP-COOP", coop, params, dirs)) == sweep
    oracle = brute_force_oracle
    assert builds(lambda: oracle(sd_model, "SD-WT", delta=0.25, directions=dirs)) == sweep
    p_vtx = JointPmf(
        [Axis("v", 2), Axis("t", 2), Axis("x", 2)],
        rng.dirichlet(np.ones(8)),
    )
    assert builds(lambda: two_auxiliary_bounds(p_vtx, sd_model)) == [1, 1]
    assert builds(lambda: reduce_auxiliary(p_vtx, sd_model)) == [1, 1]
    aux = aux_from_array("wiretap", np.full(4, 0.25), 2, 2)
    assert builds(lambda: single_letter_joint(sd_model, aux)) == [1]
