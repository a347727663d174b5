"""Every rate-expression row against its definition in ``wtgp.divergence``.

The bounds and objectives in ``wtgp.regions`` are evaluated from one
table of signed marginal entropies; these property tests keep an
independent reference for each row: the mutual-information, conditional
mutual-information and conditional-entropy definitions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wtgp.channels import WiretapModel
from wtgp.divergence import conditional_entropy
from wtgp.divergence import conditional_mutual_information as cmi
from wtgp.divergence import mutual_information as mi
from wtgp.pmf import Axis, JointPmf
from wtgp.regions import (
    _EXPRESSIONS,
    FAMILIES,
    _evaluate,
    _log2,
    _stacked,
    _terms,
    rate_bounds_from_joint,
    reduce_auxiliary,
    two_auxiliary_bounds,
)

TOL = 1e-12
NAMES = ("u", "x", "y1", "y2", "z")


# the definition of every table row on a (u, x, y1, y2, z) joint
REFERENCE = {
    "H(Y1|Z)": lambda j: conditional_entropy(j, {"y1"}, {"z"}),
    "I(U;Y2)-I(U;Z)": lambda j: mi(j, {"u"}, {"y2"}) - mi(j, {"u"}, {"z"}),
    "H(Y1|Z)+I(U;Y2)-I(U;Y1,Z)": lambda j: conditional_entropy(j, {"y1"}, {"z"})
    + mi(j, {"u"}, {"y2"})
    - mi(j, {"u"}, {"y1", "z"}),
    "I(X;Y1|U,Z)": lambda j: cmi(j, {"x"}, {"y1"}, {"u", "z"}),
    "I(X;Y1|Z)": lambda j: cmi(j, {"x"}, {"y1"}, {"z"}),
    "I(U;Y1)-I(U;Z)": lambda j: mi(j, {"u"}, {"y1"}) - mi(j, {"u"}, {"z"}),
}

# derandomized, so that the suite draws the same examples on every run
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def random_mass(rng, cells, sparse):
    mass = rng.dirichlet(np.ones(cells))
    if sparse:
        mass[rng.random(cells) < 0.3] = 0.0
        if mass.sum() == 0.0:
            mass[rng.integers(cells)] = 1.0
        mass /= mass.sum()
    return mass


@st.composite
def joints(draw):
    """Random joints with axis sizes 1-3, some with zero cells."""
    sizes = draw(st.tuples(*[st.integers(1, 3)] * len(NAMES)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = random_mass(rng, int(np.prod(sizes)), draw(st.booleans()))
    return JointPmf([Axis(n, s) for n, s in zip(NAMES, sizes)], mass)


def test_reference_covers_every_row():
    assert set(REFERENCE) == set(_EXPRESSIONS)


@PROPERTY
@given(joints())
def test_every_row_matches_its_definition(joint):
    terms = _terms(list(REFERENCE), joint.mass.shape)
    m = _stacked(np.asarray(joint.mass)[None], terms.keeps)
    values = _evaluate(m, _log2(m), terms)
    for (name, ref), value in zip(REFERENCE.items(), values):
        assert value.shape == (1,)
        assert abs(float(value[0]) - ref(joint)) <= TOL, name


@PROPERTY
@given(joints(), st.permutations(NAMES), st.floats(0.0, 1.0))
def test_family_bounds_match_their_definitions(joint, order, coop):
    # the scalar path reorders its joint, so any axis order must do
    shuffled = joint.reordered(order)
    ref = {name: f(joint) for name, f in REFERENCE.items()}
    expect = {
        "SD": (
            ref["H(Y1|Z)"],
            ref["I(U;Y2)-I(U;Z)"],
            ref["H(Y1|Z)+I(U;Y2)-I(U;Y1,Z)"],
        ),
        "PD-IR": (ref["I(X;Y1|U,Z)"], ref["I(U;Y2)-I(U;Z)"], None),
        "PD-IR-COOP": (
            ref["I(X;Y1|U,Z)"],
            ref["I(U;Y2)-I(U;Z)"] + coop,
            ref["I(X;Y1|Z)"],
        ),
    }
    for family, (_, kind) in FAMILIES.items():
        r1, r2, rs = expect[kind]
        b = rate_bounds_from_joint(family, shuffled, coop)
        assert abs(b.raw_r1 - r1) <= TOL
        assert abs(b.raw_r2 - r2) <= TOL
        if rs is None:
            assert b.raw_sum is None and b.r_sum is None
        else:
            assert abs(b.raw_sum - rs) <= TOL
        assert b.r1 == max(b.raw_r1, 0.0) and b.r2 == max(b.raw_r2, 0.0)


def random_sd_model(rng):
    f = rng.integers(0, 2, size=2)
    rows = rng.dirichlet(np.ones(4), size=2)
    law = np.zeros((2, 2, 2, 2))
    for x in range(2):
        law[x, f[x]] = rows[x].reshape(2, 2)
    return WiretapModel(law=law)


@PROPERTY
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_two_auxiliary_bounds_and_margins_match_definitions(nv, nt, seed, sparse):
    rng = np.random.default_rng(seed)
    model = random_sd_model(rng)
    mass = random_mass(rng, nv * nt * 2, sparse).reshape(nv, nt, 2)
    p_vtx = JointPmf([Axis("v", nv), Axis("t", nt), Axis("x", 2)], mass)
    names = ("v", "t", "x", "y1", "y2", "z")
    joint = JointPmf(
        [Axis(n, s) for n, s in zip(names, (nv, nt, 2, 2, 2, 2))],
        np.einsum("vtx,xjkz->vtxjkz", mass, model.law),
    )

    two = two_auxiliary_bounds(p_vtx, model)
    r1 = conditional_entropy(joint, {"y1"}, {"z"})
    assert abs(two.raw_r1 - r1) <= TOL
    raw_r2 = mi(joint, {"v"}, {"y2"}) - mi(joint, {"v"}, {"z"})
    assert abs(two.raw_r2 - raw_r2) <= TOL
    raw_sum = r1 + mi(joint, {"v", "t"}, {"y2"}) - mi(joint, {"v", "t"}, {"y1", "z"})
    assert abs(two.raw_sum - raw_sum) <= TOL

    red = reduce_auxiliary(p_vtx, model)
    i_ty2_v = cmi(joint, {"t"}, {"y2"}, {"v"})
    case1 = i_ty2_v - cmi(joint, {"t"}, {"y1", "z"}, {"v"})
    case2 = i_ty2_v - cmi(joint, {"t"}, {"z"}, {"v"})
    assert abs(red.case1_margin - case1) <= TOL
    assert abs(red.case2_margin - case2) <= TOL
