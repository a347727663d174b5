"""Hand-worked values for the benchmark's reference computations.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import math

import numpy as np
import pytest

import reference as ref


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def test_binary_entropy_and_degraded_bsc_capacity():
    assert ref.h2(0.5) == 1.0
    assert ref.h2(0.0) == 0.0
    # h(0.25) = 2 - (3/4) log2 3
    assert ref.h2(0.25) == pytest.approx(2.0 - 0.75 * math.log2(3.0), abs=1e-15)
    # h(0.2) - h(0.1) = 0.7219280948873623 - 0.4689955935892812
    assert ref.degraded_bsc_secrecy_capacity(0.1, 0.2) == pytest.approx(0.2529325012980811, abs=1e-15)
    # an eavesdropper with the better channel leaves no secret rate
    assert ref.degraded_bsc_secrecy_capacity(0.2, 0.1) == 0.0


def test_entropy_bits():
    assert ref.entropy_bits(np.array([0.5, 0.25, 0.25, 0.0])) == pytest.approx(1.5, abs=1e-15)


def noiseless_const_z():
    """y1 = y2 = x, constant z."""
    law = np.zeros((2, 2, 2, 1))
    for x in range(2):
        law[x, x, x, 0] = 1.0
    return law


def test_sd_bounds_on_the_noiseless_channel():
    # U = X uniform: H(Y1|Z) = 1, I(U;Y2) - I(U;Z) = 1, sum 1 + 1 - 1 = 1
    joint = ref.wiretap_joint(np.array([[0.5, 0.0], [0.0, 0.5]]), noiseless_const_z())
    r1, r2, rs = ref.family_bounds("SD", joint)
    assert (r1, r2, rs) == pytest.approx((1.0, 1.0, 1.0), abs=1e-15)
    # the diagonal direction is capped by the sum rate, the axes by r1, r2
    assert ref.support_value(r1, r2, rs, 1.0, 1.0) == pytest.approx(1.0)
    assert ref.support_value(r1, r2, rs, 1.0, 0.0) == pytest.approx(1.0)
    assert ref.support_value(0.5, 0.25, None, 2.0, 4.0) == pytest.approx(2.0)
    # negative bounds clamp to zero
    assert ref.support_value(-0.1, 0.3, 0.2, 1.0, 1.0) == pytest.approx(0.2)
    assert ref.in_region((0.5, 0.5), r1, r2, rs, 1e-12)
    assert not ref.in_region((0.75, 0.5), r1, r2, rs, 1e-12)


def test_pd_ir_bounds_on_a_bsc_with_informed_receiver():
    # Y1 = BSC(0.1)(X), Y2 = Y1, Z independent fair bit; U constant, X uniform:
    # I(X;Y1|U,Z) = 1 - h(0.1), I(U;Y2) - I(U;Z) = 0
    law = np.einsum("xa,ab,c->xabc", bsc(0.1), np.eye(2), np.array([0.5, 0.5]))
    joint = ref.wiretap_joint(np.array([[0.5, 0.5]]), law)
    r1, r2, rs = ref.family_bounds("PD-IR", joint)
    assert r1 == pytest.approx(1.0 - ref.h2(0.1), abs=1e-12)
    assert r2 == pytest.approx(0.0, abs=1e-12)
    assert rs is None


def test_secrecy_objective_on_a_degraded_bsc_pair():
    # U = X uniform on BSC(0.1) / BSC(0.2): I(X;Y1) - I(X;Z) = h(0.2) - h(0.1)
    law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.2))[:, :, None, :]
    joint = ref.wiretap_joint(np.array([[0.5, 0.0], [0.0, 0.5]]), law)
    assert ref.secrecy_objective(joint) == pytest.approx(ref.degraded_bsc_secrecy_capacity(0.1, 0.2), abs=1e-12)


def test_gp_joint_matches_the_wiretap_joint_under_the_analogy():
    # with q(u, x | z) = p(u, x) p(z | x) / q(z), the GP joint equals the
    # wiretap joint cell by cell
    law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.3))[:, :, None, :]
    p_ux = np.array([[0.2, 0.1], [0.3, 0.4]])
    p_zx = law.sum(axis=(1, 2))
    q_z = p_ux.sum(axis=0) @ p_zx
    rows = np.einsum("ux,xz->zux", p_ux, p_zx) / q_z[:, None, None]
    gp_law = np.transpose(law, (0, 3, 1, 2)) / p_zx[:, :, None, None]
    np.testing.assert_allclose(ref.gp_joint(q_z, rows, gp_law), ref.wiretap_joint(p_ux, law), atol=1e-15)


def test_random_achievers_never_beat_the_optimum():
    law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.2))[:, :, None, :]
    law = np.concatenate([law, law], axis=2) / 2.0  # y2: a fair coin
    best = ref.random_achiever_best("SD", law, 3, [(1.0, 0.0)], np.random.default_rng(0), 16)
    # R1 <= H(Y1|Z) <= 1 for binary Y1
    assert 0.0 < best[0] <= 1.0


def test_random_gp_achievers_never_beat_the_optimum():
    # GP law (x, z, y1, y2): Y1 = BSC(0.1) of X, Y2 a fair coin, Z a fair
    # coin independent of both.  PD-IR: R1 = I(X;Y1|U,Z) <= 1 - h(0.1),
    # and R2 = I(U;Y2) - I(U;Z) = -I(U;Z) <= 0, so the support on the R2
    # axis is 0.
    law = np.einsum("xa,z,b->xzab", bsc(0.1), [1.0, 1.0], [0.5, 0.5])
    best = ref.random_achiever_best(
        "PD-IR", law, 3, [(1.0, 0.0), (0.0, 1.0)], np.random.default_rng(0), 16,
        q_z=np.array([0.5, 0.5]),
    )
    assert 0.0 < best[0] <= 1.0 - ref.h2(0.1) + 1e-12
    assert best[1] == 0.0


def test_letter_typical_decoder():
    # two candidates 00 and 11 over a binary symbol; reference pair pmf
    # puts mass only on agreeing pairs, so an observation decodes to the
    # candidate it equals, and 01 matches neither
    cands = np.array([[0, 0], [1, 1]])
    labels = np.array([0, 1])
    pair_ref = np.array([0.5, 0.0, 0.0, 0.5])  # (c, o) in {00, 01, 10, 11}
    obs = np.array([[0, 0], [1, 1], [0, 1]])
    out, ties = ref.letter_typical_decode(cands, labels, 2, obs, 2, pair_ref, 1.0)
    assert out.tolist() == [0, 1, 0]
    # nu = 1 against p = 1/2 with eps = 1 sits exactly on the boundary
    assert ties.tolist() == [True, True, False]
    # with a loose reference both candidates are typical: not unique, so 0
    loose = np.full(4, 0.25)
    out, ties = ref.letter_typical_decode(cands, labels, 2, np.array([[1, 1]]), 2, loose, 4.0)
    assert out.tolist() == [0] and not ties.any()


def test_exact_error_probability_of_a_repetition_code():
    # two messages, codewords 00 and 11 on BSC(p) to receiver 1, majority
    # decoding with ties to message 0: message 0 fails only on 11 (p^2),
    # message 1 fails on 00, 01, 10: p^2 + 2p(1-p)
    p = 0.1
    law = np.einsum("xa,xc->xac", bsc(p), bsc(0.3))[:, :, None, :]
    outer = np.array([[0, 0], [1, 1]]).reshape(2, 1, 1, 1, 2)
    dec1 = np.array([0, 0, 0, 1])
    dec2 = np.zeros(1, dtype=np.int64)
    want = 0.5 * (p * p) + 0.5 * (p * p + 2 * p * (1 - p))
    assert ref.exact_error_probability(outer, law, False, dec1, dec2) == pytest.approx(want, abs=1e-15)


def test_message_state_joint_and_tv():
    # one letter, two messages sent as x = m, Z = BSC(0.25)(X):
    # P(m, z) = 1/2 BSC(0.25)[m, z]; against unif x q_z with q_z = (1/2, 1/2)
    # the TV is 1/2 * 4 * |3/8 - 1/4| = 1/4
    law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :]
    outer = np.array([[0], [1]]).reshape(2, 1, 1, 1, 1)
    p_mz = ref.message_state_joint(outer, law)
    np.testing.assert_allclose(p_mz[:, 0, :], [[0.375, 0.125], [0.125, 0.375]], atol=1e-15)
    assert ref.message_state_tv(p_mz, np.array([0.5, 0.5])) == pytest.approx(0.25, abs=1e-15)
