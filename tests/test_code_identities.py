"""The exact identities on random small codes.

Every exactly-enumerated code run must satisfy, at the tolerances that
``wtgp compare`` gates on:

* reliability: P_e equals the TV between the (M, Mh) marginal and
  uniform-and-correct, within 1e-12;
* secrecy split: D(P_{M,Z^n} || unif x q_Z^n) = I(M; Z^n) +
  D(P_{Z^n} || q_Z^n), within 1e-10;
* collapse: a wiretap code and the GP code it induces differ in TV by
  exactly || P_{M,Z^n} - unif x q_Z^n ||, within 1e-12.

Wiretap codes are explicit encoder tables with random decode tables on
random laws with zero cells; GP codes are ``random_gp_code`` draws on the
analogous model of such a law, informed and not.

The same codes check the Monte Carlo path against exact enumeration: the
(m1, m2, mh1, mh2, z^n) view counted over T trials is within total
variation 0.5 * sqrt(cells / T) + 0.02 of the exact view.  The first term
bounds the expected TV (each cell's mean absolute error is at most
sqrt(p / T), and the sum of sqrt(p) over the cells is at most
sqrt(cells)); one trial moves the TV by at most 1 / T, so the chance of
exceeding the expectation by 0.02 is below exp(-2 * 0.02**2 * T).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wtgp.channels import WiretapModel, analogous_gpbc, default_state_dist
from wtgp.codes import (
    _estimate_view,
    error_probability,
    gp_collapse_residual,
    induced_joint,
    random_gp_code,
    reliability_identity_residual,
    secrecy_identity_residual,
    wiretap_code_from_tables,
)
from wtgp.divergence import total_variation
from wtgp.pmf import FinitePmf

# derandomized, so that the suite draws the same examples on every run
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
MC_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
MC_TRIALS = 50_000


def sparse_rows(rng, rows, size, zero_share):
    """(rows, size) Dirichlet pmfs with about ``zero_share`` zero cells.

    Each row keeps at least one positive cell, so it stays a pmf.
    """
    out = rng.dirichlet(np.ones(size), size=rows) * (rng.random((rows, size)) >= zero_share)
    out[out.sum(axis=1) == 0.0, 0] = 1.0
    return out / out.sum(axis=1, keepdims=True)


@st.composite
def wiretap_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    xs, y1s, y2s, zs = (draw(st.integers(1, 2)) for _ in range(4))
    law = sparse_rows(rng, xs, y1s * y2s * zs, 0.3).reshape(xs, y1s, y2s, zs)
    model = WiretapModel(law=law, informed_receiver=draw(st.booleans()))
    m1s, m2s = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    enc = sparse_rows(rng, m1s * m2s, xs**n, 0.5).reshape(m1s, m2s, -1)
    obs1 = y1s * zs if model.informed_receiver else y1s
    code = wiretap_code_from_tables(
        model, n, enc, rng.integers(0, m1s, obs1**n), rng.integers(0, m2s, y2s**n)
    )
    q_z = default_state_dist(model) if draw(st.booleans()) else FinitePmf(
        rng.dirichlet(np.ones(zs))
    )
    return code, model, q_z


@st.composite
def gp_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    xs, y1s, zs = (draw(st.integers(1, 2)) for _ in range(3))
    law = sparse_rows(rng, xs, y1s * zs, 0.3).reshape(xs, y1s, 1, zs)
    model = WiretapModel(law=law, informed_receiver=draw(st.booleans()))
    gp_model = analogous_gpbc(model, FinitePmf(sparse_rows(rng, 1, zs, 0.3)[0]))
    code = random_gp_code(gp_model, n, draw(st.integers(1, 3)), draw(st.integers(0, 1000)))
    return code, gp_model


def assert_run_identities(code, model, q_z):
    ij = induced_joint(code, model)
    assert abs(float(ij.joint.mass.sum()) - 1.0) <= 1e-12
    assert 0.0 <= error_probability(ij) <= 1.0
    assert reliability_identity_residual(ij) <= 1e-12
    assert secrecy_identity_residual(ij, q_z) <= 1e-10


@PROPERTY
@given(wiretap_cases())
def test_wiretap_code_identities(case):
    code, model, q_z = case
    assert_run_identities(code, model, q_z)
    residual, full, collapsed = gp_collapse_residual(code, model, q_z)
    assert residual <= 1e-12
    assert 0.0 <= full <= 1.0 + 1e-12


@PROPERTY
@given(gp_cases())
def test_gp_code_identities(case):
    code, gp_model = case
    assert_run_identities(code, gp_model, gp_model.state_dist)


def assert_mc_approaches_exact(code, model, seed):
    exact = _estimate_view(induced_joint(code, model), with_z=True)
    mc = _estimate_view(induced_joint(code, model, mode="mc", trials=MC_TRIALS, seed=seed), True)
    assert mc.axes == exact.axes
    bound = 0.5 * math.sqrt(exact.mass.size / MC_TRIALS) + 0.02
    assert total_variation(mc, exact) <= bound


@MC_PROPERTY
@given(wiretap_cases(), st.integers(0, 2**64 - 1))
def test_wiretap_mc_joint_approaches_exact(case, seed):
    code, model, _ = case
    assert_mc_approaches_exact(code, model, seed)


@MC_PROPERTY
@given(gp_cases(), st.integers(0, 2**64 - 1))
def test_gp_mc_joint_approaches_exact(case, seed):
    assert_mc_approaches_exact(*case, seed)
