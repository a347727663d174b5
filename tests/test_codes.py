"""Block codes: codebooks, decode tables, induced joints, and the converse."""

import dataclasses
import hashlib
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtgp
from wtgp import codes, divergence
from wtgp.channels import WiretapModel, analogous_gpbc, default_state_dist
from wtgp.codes import (
    BlockCode,
    CodeRates,
    SimParams,
    _mc_counts,
    effective_secrecy,
    encoder_kernel,
    error_probability,
    gp_collapse_residual,
    induce_gp_code,
    induced_joint,
    message_state_tv,
    multiletter_converse_gap,
    random_gp_code,
    reliability_identity_residual,
    sample_codebook,
    secrecy_identity_residual,
    simulate_trend,
    superposition_code,
    tv_to_target,
    typicality_decode,
    wiretap_code_from_tables,
    wiretap_encode,
)
from wtgp.divergence import total_variation
from wtgp.errors import ResourceError, ShapeError
from wtgp.pmf import Axis, FinitePmf, JointPmf


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def product_model(p1=0.1, p2=0.3, pz=0.25, **kw):
    law = np.einsum("xa,xb,xc->xabc", bsc(p1), bsc(p2), bsc(pz))
    return WiretapModel(law=law, **kw)


def pp_model(p1=0.1, pz=0.25, **kw):
    law = np.einsum("xa,xc->xac", bsc(p1), bsc(pz))[:, :, None, :]
    return WiretapModel(law=law, **kw)


def uniform_ux():
    return JointPmf([Axis("u", 2), Axis("x", 2)], np.eye(2) / 2.0)


def correlated_ux():
    return JointPmf(
        [Axis("u", 2), Axis("x", 2)], np.array([[0.4, 0.1], [0.1, 0.4]])
    )


def make_code(model=None, n=2, seed=0, eps=0.3, rates=None, p_ux=None):
    model = model or product_model()
    rates = rates or CodeRates(r1=0.5, r2=0.5, rt1=0.5, rt2=0.5)
    cb = sample_codebook(p_ux or correlated_ux(), n, rates, seed)
    return superposition_code(cb, model, eps), model


class TestCodeRates:
    def test_exact_powers(self):
        assert CodeRates(r1=0.5, r2=1.0, rt1=0.0, rt2=1.5).sizes(2) == (2, 4, 1, 8)

    def test_ceiling(self):
        assert CodeRates(r1=0.8).sizes(2) == (4, 1, 1, 1)

    def test_integer_rates_not_bumped_by_roundoff(self):
        for n in range(1, 12):
            assert CodeRates(r1=1.0).sizes(n)[0] == 2**n


class TestSampleCodebook:
    def test_deterministic_bytes(self):
        r = CodeRates(r1=0.5, r2=0.5, rt1=0.5, rt2=0.5)
        a = sample_codebook(correlated_ux(), 3, r, seed=7)
        b = sample_codebook(correlated_ux(), 3, r, seed=7)
        assert a.inner.tobytes() == b.inner.tobytes()
        assert a.outer.tobytes() == b.outer.tobytes()
        c = sample_codebook(correlated_ux(), 3, r, seed=8)
        assert c.outer.tobytes() != a.outer.tobytes()

    def test_cells_keyed_by_index_not_order(self):
        # growing the message set must not disturb existing codewords
        small = sample_codebook(correlated_ux(), 2, CodeRates(r1=0.5, r2=0.5), 5)
        big = sample_codebook(correlated_ux(), 2, CodeRates(r1=1.0, r2=0.5), 5)
        np.testing.assert_array_equal(big.inner, small.inner)
        np.testing.assert_array_equal(big.outer[:2], small.outer)

    def test_letters_in_alphabet(self):
        cb = sample_codebook(correlated_ux(), 4, CodeRates(r1=0.25, rt1=0.5), 1)
        assert cb.inner.min() >= 0 and cb.inner.max() < 2
        assert cb.outer.min() >= 0 and cb.outer.max() < 2

    def test_axes_checked(self):
        bad = JointPmf([Axis("x", 2), Axis("u", 2)], np.full((2, 2), 0.25))
        with pytest.raises(ShapeError):
            sample_codebook(bad, 2, CodeRates(r1=0.5), 0)

    def test_budget(self):
        with pytest.raises(ResourceError):
            sample_codebook(correlated_ux(), 8, CodeRates(r1=1.0, rt1=1.0), 0,
                            table_budget=100)

    def test_bad_blocklength(self):
        with pytest.raises(ValueError):
            sample_codebook(correlated_ux(), 0, CodeRates(r1=0.5), 0)


class TestEncoder:
    def test_explicit_randomness_reads_the_codebook(self):
        code, _ = make_code()
        cb = code.codebook
        for m1 in range(cb.m1_size):
            for m2 in range(cb.m2_size):
                got = wiretap_encode(code, m1, m2, (1, 0))
                np.testing.assert_array_equal(got, cb.outer[m1, 1, m2, 0])

    def test_generator_randomness(self):
        code, _ = make_code()
        x = wiretap_encode(code, 0, 0, np.random.default_rng(0))
        assert x.shape == (code.n,)
        assert x.min() >= 0 and x.max() < code.x_size

    def test_kernel_matches_averaged_indicators(self):
        code, _ = make_code()
        cb = code.codebook
        kern = encoder_kernel(code)
        powers = code.x_size ** np.arange(code.n - 1, -1, -1)
        hand = np.zeros_like(kern)
        for m1 in range(cb.m1_size):
            for w1 in range(cb.w1_size):
                for m2 in range(cb.m2_size):
                    for w2 in range(cb.w2_size):
                        xf = int(cb.outer[m1, w1, m2, w2] @ powers)
                        hand[m1, m2, xf] += 1.0 / (cb.w1_size * cb.w2_size)
        np.testing.assert_allclose(kern, hand, atol=1e-15)
        np.testing.assert_allclose(kern.sum(axis=2), 1.0, atol=1e-12)

    def test_table_encoder_roundtrip(self):
        model = pp_model()
        enc = np.zeros((2, 1, 4))
        enc[0, 0, 0] = 1.0  # x^2 = 00
        enc[1, 0, 3] = 1.0  # x^2 = 11
        code = wiretap_code_from_tables(
            model, 2, enc, np.array([0, 0, 1, 1]), np.zeros(1, dtype=np.int64)
        )
        np.testing.assert_array_equal(encoder_kernel(code), enc)
        x = wiretap_encode(code, 1, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(x, [1, 1])
        with pytest.raises(ValueError):
            wiretap_encode(code, 1, 0, (0, 0))

    def test_table_encoder_validation(self):
        model = pp_model()
        with pytest.raises(ShapeError):
            wiretap_code_from_tables(
                model, 2, np.ones((2, 1, 3)) / 3, np.zeros(4), np.zeros(1)
            )
        bad = np.zeros((2, 1, 4))
        bad[:, :, 0] = 0.5
        with pytest.raises(ValueError):
            wiretap_code_from_tables(model, 2, bad, np.zeros(4), np.zeros(1))

    def test_table_encoder_rows_are_checked_at_the_pmf_tolerance(self):
        # rows 4e-10 off 1 used to build a code whose every exact metric
        # then refused its joint; they are refused where they enter
        enc = np.zeros((4, 1, 4))
        enc[np.arange(4), 0, np.arange(4)] = 1.0
        enc[2, 0, 2] += 4e-10
        with pytest.raises(
            ValueError,
            match=r"encoder rows must be pmfs: encoder table row \(2, 0\) sums to 1\.0000000004",
        ):
            wiretap_code_from_tables(pp_model(), 2, enc, np.arange(4), np.zeros(1))

    def test_table_encoder_rejects_nan_rows(self):
        law = np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :]
        with pytest.raises(ValueError, match="encoder rows must be pmfs"):
            wiretap_code_from_tables(
                WiretapModel(law=law), 1, [[[np.nan, 1.0]]], np.zeros(2), np.zeros(1)
            )


def trend_fixture(n, seed):
    """Criterion 09's informed ternary fixture, Y1 = Y2 = X with binary Z:
    its codebook at (n, seed) and its model."""
    pz = np.array([[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]])
    law = np.zeros((3, 3, 3, 2))
    for x in range(3):
        law[x, x, x, :] = pz[x]
    p_ux = JointPmf(
        [Axis("u", 2), Axis("x", 3)],
        np.array([[0.3, 0.2, 0.0], [0.0, 0.2, 0.3]]),
    )
    rates = CodeRates(r1=0.125, r2=0.125, rt1=0.375, rt2=0.375)
    return sample_codebook(p_ux, n, rates, seed), WiretapModel(law=law, informed_receiver=True)


def trend_code(n, seed, eps, table_budget=codes.DEFAULT_TABLE_BUDGET):
    return superposition_code(*trend_fixture(n, seed), eps, table_budget)


def assert_tables_match_scalar_decoder(code):
    n = code.n
    for flat in range(code.obs1_size**n):
        seq = [(flat // code.obs1_size ** (n - 1 - t)) % code.obs1_size
               for t in range(n)]
        assert code.dec1[flat] == typicality_decode(code, seq, 1)
    for flat in range(code.y2_size**n):
        seq = [(flat // code.y2_size ** (n - 1 - t)) % code.y2_size
               for t in range(n)]
        assert code.dec2[flat] == typicality_decode(code, seq, 2)


def loop_candidates(cb):
    """Reference: receiver-1 and receiver-2 candidates, one codeword at a time."""
    m1s, w1s, m2s, w2s, _ = cb.outer.shape
    c1, l1, c2, l2 = [], [], [], []
    for m1, w1, m2, w2 in itertools.product(range(m1s), range(w1s), range(m2s), range(w2s)):
        c1.append(cb.inner[m2, w2] * cb.x_size + cb.outer[m1, w1, m2, w2])
        l1.append(m1)
    for m2, w2 in itertools.product(range(m2s), range(w2s)):
        c2.append(cb.inner[m2, w2])
        l2.append(m2)
    return [np.array(a, dtype=np.int64) for a in (c1, l1, c2, l2)]


class TestDecoder:
    def test_candidates_match_loop_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            us, xs, n = rng.integers(1, 4, size=3)
            p_ux = JointPmf(
                [Axis("u", us), Axis("x", xs)],
                rng.dirichlet(np.ones(us * xs)).reshape(us, xs),
            )
            rates = CodeRates(*rng.choice([0.0, 0.5, 1.0], size=4))
            cb = sample_codebook(p_ux, n, rates, int(rng.integers(100)))
            got = [*codes._receiver1_candidates(cb), *codes._receiver2_candidates(cb)]
            for g, want in zip(got, loop_candidates(cb)):
                assert g.dtype == want.dtype
                np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("informed", [False, True])
    def test_tables_match_scalar_decoder(self, informed):
        code, _ = make_code(model=product_model(informed_receiver=informed))
        assert_tables_match_scalar_decoder(code)

    # the trend fixture decodes 160 of its 1296 receiver-1 observations to
    # a nonzero message, so a table of zeros cannot pass for it
    @pytest.mark.parametrize(
        "make, nonzero",
        [
            (lambda: make_code(model=product_model(), eps=1.0)[0], False),
            (lambda: make_code(model=product_model(informed_receiver=True), eps=2.5)[0], False),
            (lambda: trend_code(4, 1, 0.9), False),
            (lambda: trend_code(4, 1, 32.0), True),
        ],
        ids=["eps1", "informed-eps2.5", "trend-eps0.9", "trend-eps32"],
    )
    def test_tables_match_scalar_decoder_wide_eps(self, make, nonzero):
        code = make()
        if nonzero:
            assert (code.dec1 != 0).sum() > 0
        assert_tables_match_scalar_decoder(code)

    def test_decoder_validation(self):
        code, _ = make_code()
        with pytest.raises(ValueError):
            typicality_decode(code, [0, 5], 1)
        with pytest.raises(ValueError):
            typicality_decode(code, [0, 0], 3)
        with pytest.raises(ShapeError):
            typicality_decode(code, [0], 1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_decoder_refuses_non_finite_eps(self, eps):
        code, _ = make_code()
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            typicality_decode(code, [0, 0], 1, eps)

    def test_table_codes_have_no_reference(self):
        model = pp_model()
        enc = np.zeros((2, 1, 4))
        enc[0, 0, 0] = enc[1, 0, 3] = 1.0
        code = wiretap_code_from_tables(
            model, 2, enc, np.array([0, 0, 1, 1]), np.zeros(1, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            typicality_decode(code, [0, 0], 1)

    @pytest.mark.parametrize("eps", [-1.0, -1e-300, math.inf, math.nan])
    def test_superposition_code_refuses_bad_eps(self, eps):
        # typicality_decode refuses eps < 0, and at eps = inf the table's
        # inf * 0 = nan would pass an occupied zero-reference bin
        cb = sample_codebook(correlated_ux(), 2, CodeRates(r1=0.5, r2=0.5, rt1=0.5, rt2=0.5), 0)
        with pytest.raises(ValueError, match="eps"):
            superposition_code(cb, product_model(), eps)


def mc_code(n, seed):
    """The Monte Carlo benchmark fixture: BSC(0.1) main, BSC(0.25) eavesdropper."""
    p_ux = JointPmf([Axis("u", 1), Axis("x", 2)], np.array([[0.5, 0.5]]))
    cb = sample_codebook(p_ux, n, CodeRates(r1=0.2, rt1=0.1), seed)
    return superposition_code(cb, pp_model(), 1.1)


def exact_code(p_ux, seed, eps):
    """The exact benchmark's broadcast model at n = 5."""
    zch = np.array([[0.8, 0.2], [0.3, 0.7]])
    model = WiretapModel(law=np.einsum("xa,xb,xc->xabc", bsc(0.1), bsc(0.3), zch))
    p_ux = np.array(p_ux)
    joint = JointPmf([Axis("u", p_ux.shape[0]), Axis("x", 2)], p_ux)
    cb = sample_codebook(joint, 5, CodeRates(r1=0.2, r2=0.2, rt1=0.2), seed)
    return superposition_code(cb, model, eps)


class TestDecodeTablePins:
    # sha256 prefixes of the little-endian int64 dec1 bytes followed by
    # the dec2 bytes, computed with a kernel that tested every
    # (observation, candidate) pair, so they do not rest on the
    # typical-set enumeration they check
    PINS = {
        "trend-2-3": (lambda: trend_code(2, 3, 32.0), "6374aa12eb81cbe6"),
        "trend-4-3": (lambda: trend_code(4, 3, 32.0), "990e4d7b5e3a8de7"),
        "trend-6-3": (lambda: trend_code(6, 3, 32.0), "463063af34ff8a9a"),
        "trend-2-12345": (lambda: trend_code(2, 12345, 32.0), "8a52d56f796433de"),
        "trend-4-12345": (lambda: trend_code(4, 12345, 32.0), "0824f83be3016868"),
        "trend-6-12345": (lambda: trend_code(6, 12345, 32.0), "b7b2de5befbd5a2c"),
        "criterion09-8": (lambda: trend_code(8, 265, 32.0, 1 << 21), "17ab60875bac06b6"),
        "mc-8": (lambda: mc_code(8, 3), "dcc451be989eb4e3"),
        "mc-10": (lambda: mc_code(10, 3), "0af2066414ca2287"),
        # the benchmark's p_ux shape: more positive bins than letters, so
        # eps < 1 leaves every table at 0
        "exact-5": (
            lambda: exact_code([[0.1, 0.2], [0.3, 0.05], [0.15, 0.2]], 3, 0.5),
            "076a27c79e5ace2a",
        ),
        "exact-5-correlated": (
            lambda: exact_code([[0.4, 0.1], [0.1, 0.4]], 3, 0.5),
            "07b1ae789c4359da",
        ),
        "exact-5-correlated-eps1.5": (
            lambda: exact_code([[0.4, 0.1], [0.1, 0.4]], 3, 1.5),
            "00f7f65babcc4f19",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_tables_are_pinned(self, name):
        make, pin = self.PINS[name]
        code = make()
        data = code.dec1.astype("<i8").tobytes() + code.dec2.astype("<i8").tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == pin

    def test_criterion09_table_peak(self):
        # the pairwise kernel peaked at 17 621 205 bytes (16.8 MiB) here;
        # the n = 8 receiver-1 table alone is 6**8 int64 entries, 12.8 MiB
        cb, model = trend_fixture(8, 265)
        code, peak = traced_peak(lambda: superposition_code(cb, model, 32.0, 1 << 21))
        assert code.dec1.size == 6**8
        assert peak <= 16.8 * 2**20


class TestInducedJointExact:
    def test_mass_normalized_and_identities(self):
        for seed in range(4):
            code, model = make_code(seed=seed)
            ij = induced_joint(code, model)
            assert abs(float(ij.joint.mass.sum()) - 1.0) <= 1e-12
            assert reliability_identity_residual(ij) <= 1e-12
            q_z = default_state_dist(model)
            assert secrecy_identity_residual(ij, q_z) <= 1e-12
            rep = effective_secrecy(ij, q_z)
            assert rep.message_divergence <= 1e-12
            assert 0.0 <= error_probability(ij) <= 1.0
            assert message_state_tv(ij, q_z) <= tv_to_target(ij, q_z) + 1e-12

    def test_perfect_code_has_zero_error(self):
        law = np.zeros((2, 2, 1, 1))
        law[0, 0, 0, 0] = law[1, 1, 0, 0] = 1.0
        model = WiretapModel(law=law)
        enc = np.zeros((2, 1, 2))
        enc[0, 0, 0] = enc[1, 0, 1] = 1.0
        code = wiretap_code_from_tables(
            model, 1, enc, np.array([0, 1]), np.zeros(1, dtype=np.int64)
        )
        ij = induced_joint(code, model)
        assert error_probability(ij) == 0.0

    def test_alphabet_guard(self):
        code, _ = make_code()
        other = WiretapModel(law=np.full((2, 2, 2, 3), 1.0 / 12.0))
        with pytest.raises(ShapeError):
            induced_joint(code, other)

    def test_mode_and_trials_validation(self):
        code, model = make_code()
        with pytest.raises(ValueError):
            induced_joint(code, model, mode="approx")
        with pytest.raises(ValueError):
            induced_joint(code, model, mode="mc", trials=0)

    def test_enumeration_budget(self):
        code, model = make_code()
        with pytest.raises(ResourceError):
            induced_joint(code, model, budget=3)

    def test_cell_budget_boundary(self):
        # a deterministic 4-message table code at n = 2 on a 2 x 2 x 1 x 2
        # law: its joint over (m1, m2, x^2, y1^2, y2^2, z^2) has
        # 4 * 1 * 4 * 4 * 1 * 4 = 256 cells, and the budget counts exactly those
        model = pp_model()
        enc = np.zeros((4, 1, 4))
        enc[np.arange(4), 0, np.arange(4)] = 1.0
        code = wiretap_code_from_tables(
            model, 2, enc, np.arange(4), np.zeros(1, dtype=np.int64)
        )
        with pytest.raises(ResourceError, match="exact joint needs 256 cells, budget is 255"):
            induced_joint(code, model, budget=255)
        ij = induced_joint(code, model, budget=256)
        assert ij.joint.mass.size == 256
        assert abs(float(ij.joint.mass.sum()) - 1.0) <= 1e-12


def traced_peak(call):
    """(result, peak bytes numpy and Python allocated while ``call`` ran)."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def sparse_n5_code():
    # the exact benchmark's shape: 8 codewords among 32 x^5 rows, so the
    # written branches fill a sixteenth of the 2^22-cell (32 MiB) joint
    cb = sample_codebook(correlated_ux(), 5, CodeRates(r1=0.2, r2=0.2, rt1=0.2), 3)
    model = product_model()
    return superposition_code(cb, model, 0.5), model


class TestExactMemory:
    def test_exact_joint_is_allocated_once(self):
        code, model = sparse_n5_code()
        ij, peak = traced_peak(lambda: induced_joint(code, model))
        joint = ij.joint.mass.nbytes
        assert joint == 1 << 25
        # the joint, plus the buffer of its written branches
        assert peak <= joint + joint // 8

    def test_first_joint_access_is_allocated_once(self):
        code, model = sparse_n5_code()
        ij = induced_joint(code, model)
        joint, peak = traced_peak(lambda: ij.joint)
        assert joint.mass.nbytes == 1 << 25
        # the joint, plus the buffer of its written branches
        assert peak <= joint.mass.nbytes + joint.mass.nbytes // 8

    def test_collapse_holds_two_joints_and_one_tv_block(self):
        code, model = sparse_n5_code()
        _, peak = traced_peak(lambda: gp_collapse_residual(code, model))
        # two joints, one block's difference buffer and sign mask, and
        # 1 MiB for the branch buffers, decode maps and encoder tables
        assert peak <= 2 * (1 << 25) + 9 * divergence.TV_BLOCK + (1 << 20)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak from /proc/self/status")
    def test_one_codeword_code_maps_only_its_branch(self):
        # one codeword at n = 4 on a 4 x 4 x 1 x 4 law: the joint has 4^12
        # cells (128 MiB), of which the one branch writes 4^8; the process
        # peak stays below the joint's own size, so the unwritten pages are
        # never mapped and no channel power over all 4^4 x^n rows is built.
        # The peak is VmHWM (KiB): ru_maxrss would carry the forking test
        # process's own peak across exec
        script = (
            "import numpy as np\n"
            "from wtgp.channels import WiretapModel\n"
            "from wtgp.codes import induced_joint, wiretap_code_from_tables\n"
            "law = np.random.default_rng(0).dirichlet(np.ones(16), size=4).reshape(4, 4, 1, 4)\n"
            "model = WiretapModel(law=law)\n"
            "enc = np.zeros((1, 1, 256))\n"
            "enc[0, 0, 37] = 1.0\n"
            "code = wiretap_code_from_tables(model, 4, enc, np.zeros(256, dtype=np.int64), np.zeros(1, dtype=np.int64))\n"
            "ij = induced_joint(code, model)\n"
            "assert ij.joint.mass.nbytes == 1 << 27\n"
            "print(next(ln.split()[1] for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(wtgp.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert int(out.stdout) < 96 * 1024

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(*(st.integers(1, 3) for _ in range(4))),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_row_power_is_bitwise_the_full_power(self, shape, n, seed, data):
        rng = np.random.default_rng(seed)
        law = rng.dirichlet(np.ones(math.prod(shape[1:])), size=shape[0])
        law = (law * (rng.random(law.shape) < 0.6)).reshape(shape)
        rows = np.array(
            data.draw(st.lists(st.integers(0, shape[0] ** n - 1), min_size=1, max_size=12)),
            dtype=np.int64,
        )
        full = codes._seq_power(law, n)
        got = codes._seq_power_rows(law, n, rows)
        assert got.shape == (rows.size,) + full.shape[1:]
        assert got.tobytes() == full[rows].tobytes()


FULL_VIEW = ("m1", "m2", "mh1", "mh2", "z")


def brute_force_joint(code, model):
    """Exact induced joint by explicit loops over every code run.

    Loops over messages, local randomness (or encoder rows), x^n, y1^n,
    y2^n and z^n, and multiplies per-letter law entries.  The axes are
    those of the exact ``induced_joint`` followed by the decoder outputs
    (mh1, mh2), placed by looking up the decode tables cell by cell.
    """
    n = code.n
    m1s, m2s = code.m1_size, code.m2_size
    xs, y1s, y2s, zs = code.x_size, code.y1_size, code.y2_size, code.z_size

    def seqs(size):
        return itertools.product(range(size), repeat=n)

    def flat(seq, base):
        return sum(int(a) * base ** (n - 1 - i) for i, a in enumerate(seq))

    branches = []  # (m1, m2, z^n or None for every z^n, x^n, weight)
    if code.side == "gp":
        for m1, m2, z, x in itertools.product(range(m1s), range(m2s), seqs(zs), seqs(xs)):
            qz = math.prod(model.state_dist.mass[a] for a in z)
            row = code.encoder_table[m1, m2, flat(z, zs)]
            branches.append((m1, m2, z, x, qz * row[flat(x, xs)] / (m1s * m2s)))
    elif code.codebook is not None:
        cb = code.codebook
        w = 1.0 / (m1s * m2s * cb.w1_size * cb.w2_size)
        for m1, w1, m2, w2 in itertools.product(
            range(m1s), range(cb.w1_size), range(m2s), range(cb.w2_size)
        ):
            branches.append((m1, m2, None, tuple(cb.outer[m1, w1, m2, w2]), w))
    else:
        for m1, m2, x in itertools.product(range(m1s), range(m2s), seqs(xs)):
            p = code.encoder_table[m1, m2, flat(x, xs)]
            branches.append((m1, m2, None, x, p / (m1s * m2s)))

    out = np.zeros((m1s, m2s) + (xs,) * n + (y1s,) * n + (y2s,) * n + (zs,) * n + (m1s, m2s))
    for m1, m2, zb, x, w in branches:
        if w == 0.0:
            continue
        z_seqs = seqs(zs) if zb is None else [zb]
        for y1, y2, z in itertools.product(list(seqs(y1s)), list(seqs(y2s)), list(z_seqs)):
            if code.side == "gp":
                ch = math.prod(model.law[x[i], z[i], y1[i], y2[i]] for i in range(n))
            else:
                ch = math.prod(model.law[x[i], y1[i], y2[i], z[i]] for i in range(n))
            if code.informed:
                mh1 = code.dec1[flat([y1[i] * zs + z[i] for i in range(n)], y1s * zs)]
            else:
                mh1 = code.dec1[flat(y1, y1s)]
            mh2 = code.dec2[flat(y2, y2s)]
            out[(m1, m2, *x, *y1, *y2, *z, mh1, mh2)] += w * ch
    return out


def random_decoders(code, seed):
    """``code`` with uniformly random decode tables.

    The typicality decoders of the small fixtures send every observation
    to message 0, which would leave the (mh1, mh2) placement unchecked.
    """
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        code,
        dec1=rng.integers(0, code.m1_size, code.dec1.size),
        dec2=rng.integers(0, code.m2_size, code.dec2.size),
    )


def stream_fixture(kind):
    """A code of each Monte Carlo path and its model, all at n = 3."""
    if kind == "codebook":
        return make_code(model=product_model(informed_receiver=True), n=3)
    if kind == "table":
        model = product_model()
        rng = np.random.default_rng(4)
        enc = rng.dirichlet(np.ones(8), size=(2, 2))
        enc[0, 1, 2] = 0.0  # a zero branch
        enc[0, 1] /= enc[0, 1].sum()
        dec = rng.integers(0, 2, 8), rng.integers(0, 2, 8)
        return wiretap_code_from_tables(model, 3, enc, *dec), model
    if kind == "codebook-pp":  # one y2 letter, uninformed, as the mc workload runs
        return make_code(model=pp_model(), n=3)
    gp_model = analogous_gpbc(pp_model(informed_receiver=True), FinitePmf([0.3, 0.7]))
    return random_gp_code(gp_model, 3, 3, seed=6), gp_model


class TestExactReference:
    """induced_joint(mode="exact") against the brute-force loops, cell by cell."""

    def check(self, code, model):
        ij = induced_joint(code, model)
        ref = brute_force_joint(code, model)
        np.testing.assert_allclose(ij.joint.mass, ref.sum(axis=(-2, -1)), rtol=0, atol=1e-15)
        # the estimate view against the reference's own (mh1, mh2) axes
        n = code.n
        view = np.moveaxis(ref.sum(axis=tuple(range(2, 2 + 3 * n))), (-2, -1), (2, 3))
        got = codes._estimate_view(ij, with_z=True)
        assert got.axis_names == ("m1", "m2", "mh1", "mh2", *ij.z_axes)
        np.testing.assert_allclose(got.mass, view, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            codes._estimate_view(ij, with_z=False).mass,
            view.sum(axis=tuple(range(4, 4 + n))),
            rtol=0,
            atol=1e-15,
        )

    @pytest.mark.parametrize("informed", [False, True])
    def test_codebook_wiretap_code(self, informed):
        code, model = make_code(model=product_model(informed_receiver=informed))
        self.check(random_decoders(code, 1), model)

    def test_table_encoder_wiretap_code(self):
        model = product_model()
        rng = np.random.default_rng(4)
        enc = rng.dirichlet(np.ones(4), size=(2, 2))
        enc[0, 1, 2] = 0.0  # a zero branch
        enc[0, 1] /= enc[0, 1].sum()
        code = wiretap_code_from_tables(
            model, 2, enc, rng.integers(0, 2, 4), rng.integers(0, 2, 4)
        )
        self.check(code, model)

    def test_induced_gp_code(self):
        code, model = make_code(model=product_model(informed_receiver=True))
        self.check(*induce_gp_code(random_decoders(code, 2), model))

    @pytest.mark.parametrize("informed", [False, True])
    def test_random_gp_code(self, informed):
        gp_model = analogous_gpbc(
            pp_model(informed_receiver=informed), FinitePmf([0.3, 0.7])
        )
        self.check(random_gp_code(gp_model, 2, 3, seed=6), gp_model)


def random_exact_case(kind, informed, n, seed):
    """A small random code of ``kind`` and its model, for the marginal checks.

    The letter law has zero cells, the encoder rows of table codes have
    zero branches, and every code gets random decode maps.  ``gp`` is a
    point-to-point ``random_gp_code``; ``induced`` is the GP code induced
    from a random table code.
    """
    rng = np.random.default_rng(seed)
    xs, y1s, zs = (int(v) for v in rng.integers(2, 4, size=3))
    y2s = 1 if kind == "gp" else int(rng.integers(1, 3))
    law = rng.dirichlet(np.ones(y1s * y2s * zs), size=xs)
    law *= rng.random(law.shape) < 0.7
    law[np.arange(xs), rng.integers(0, law.shape[1], xs)] += 0.1  # no empty row
    law = (law / law.sum(axis=1, keepdims=True)).reshape(xs, y1s, y2s, zs)
    model = WiretapModel(law=law, informed_receiver=informed)
    if kind == "codebook":
        rates = CodeRates(*rng.choice([0.0, 0.5, 1.0], size=4) / n)
        p_ux = JointPmf([Axis("u", 2), Axis("x", xs)], rng.dirichlet(np.ones(2 * xs)).reshape(2, xs))
        code = superposition_code(sample_codebook(p_ux, n, rates, seed), model, 0.5)
        return random_decoders(code, seed), model
    if kind == "gp":
        gp_model = analogous_gpbc(model, FinitePmf(rng.dirichlet(np.ones(zs))))
        return random_gp_code(gp_model, n, int(rng.integers(1, 4)), seed), gp_model
    m1s, m2s = int(rng.integers(1, 4)), 1 + (y2s > 1)
    enc = rng.dirichlet(np.ones(xs**n), size=(m1s, m2s)) * (rng.random((m1s, m2s, xs**n)) < 0.5)
    enc[:, :, 0] += 0.05  # every row keeps a branch
    enc /= enc.sum(axis=2, keepdims=True)
    obs1 = (y1s * zs if informed else y1s) ** n
    code = wiretap_code_from_tables(
        model, n, enc, rng.integers(0, m1s, obs1), rng.integers(0, m2s, y2s**n)
    )
    if kind == "induced":
        gp_code, gp_model = induce_gp_code(code, model)
        return random_decoders(gp_code, seed), gp_model
    return code, model


def full_joint_view(ij, code):
    """The (m1, m2, mh1, mh2, z^n) view of the full joint, through ``marginalize``."""
    n = code.n
    keep = ["m1", "m2"] + [f"y1_{i + 1}" for i in range(n)] + [f"y2_{i + 1}" for i in range(n)]
    marg = ij.joint.marginalize(keep + list(ij.z_axes)).mass.reshape(code.m1_size, code.m2_size, -1)
    zf = code.z_size**n
    dec1 = code.dec1[codes._obs1_index_table(code, n)]
    est = ((dec1[:, None, :] * code.m2_size + code.dec2[:, None]) * zf + np.arange(zf)).reshape(-1)
    view = np.zeros((code.m1_size, code.m2_size, code.m1_size * code.m2_size * zf))
    for a, b in itertools.product(range(code.m1_size), range(code.m2_size)):
        np.add.at(view[a, b], est, marg[a, b])
    axes = codes._secrecy_axes(code.m1_size, code.m2_size, code.z_size, n)
    return codes.InducedJoint(JointPmf(axes, view), code.side, n, "exact", None, {})


def full_joint_converse_gap(ij, code):
    """The converse slack of ``multiletter_converse_gap``, from the full joint's marginal."""
    n = code.n
    y = [f"y1_{i + 1}" for i in range(n)]
    z = list(ij.z_axes)
    marg = ij.joint.marginalize(["m1", *y, *z])
    terms = []
    for i in range(n):
        obs, past = ({y[i], z[i]}, set(y[:i] + z[:i])) if code.informed else ({y[i]}, set(y[:i]))
        u = {"m1"} | past | set(z[i + 1 :])
        terms.append(
            divergence.mutual_information(marg, u, obs) - divergence.mutual_information(marg, u, {z[i]})
        )
    rate = math.log2(code.m1_size) / n
    return sum(terms) / n + 1.0 / n + rate * error_probability(ij) - rate


class TestExactMarginals:
    """Every exact metric from its own marginal against the full-joint path."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["codebook", "table", "gp", "induced"]),
        informed=st.booleans(),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_marginals_and_metrics_match_the_full_joint(self, kind, informed, n, seed):
        code, model = random_exact_case(kind, informed, n, seed)
        ij = induced_joint(code, model)
        full = ij.joint
        m = code.m1_size * code.m2_size
        x = [f"x{i + 1}" for i in range(n)]
        y1 = [f"y1_{i + 1}" for i in range(n)]
        y2 = [f"y2_{i + 1}" for i in range(n)]
        z = list(ij.z_axes)
        close = dict(rtol=0, atol=1e-15)
        for keep, args in [
            (y1 + y2 + z, (True, True)),
            (y1 + z, (True, False)),
            (z, (False, False)),
        ]:
            want = full.marginalize(["m1", "m2", *keep]).mass.reshape(m, -1, code.z_size**n)
            np.testing.assert_allclose(codes._run_marginal(ij.run, *args), want, **close)
        want = full.marginalize(["m1", "m2", *x, *z]).mass.reshape(m, -1, 1, code.z_size**n)
        np.testing.assert_allclose(codes._run_marginal(ij.run, False, False, x=True), want, **close)

        ref = full_joint_view(ij, code)
        q_z = FinitePmf(np.full(code.z_size, 1.0 / code.z_size))
        for metric in (
            error_probability,
            reliability_identity_residual,
            lambda j: secrecy_identity_residual(j, q_z),
            lambda j: tv_to_target(j, q_z),
            lambda j: message_state_tv(j, q_z),
            lambda j: dataclasses.astuple(effective_secrecy(j, q_z)),
        ):
            np.testing.assert_allclose(metric(ij), metric(ref), **close)
        if code.side == "wiretap":
            names = ["m1", "m2", *z]
            kern = full.marginalize(names + x).reordered(names + x).condition(names)
            gp_code = codes._gp_code_from_joint(code, ij)
            np.testing.assert_allclose(gp_code.encoder_table.reshape(kern.rows.shape), kern.rows, **close)
            assert gp_code.encoder_filled == tuple(
                (c[0], c[1], int(codes._seq_index(np.array(c[2:]), code.z_size)))
                for c in kern.filled_rows
            )
        elif code.m2_size == 1:
            got = multiletter_converse_gap(code, model).gap
            assert abs(got - full_joint_converse_gap(ij, code)) <= 1e-15

    def ternary_code(self):
        # x, y1, z ternary at n = 3: a message block holds 3^3 * 3^6 = 19683
        # cells, a multiple of no power of two, and one of the 27 x^3 rows
        # is never sent
        rng = np.random.default_rng(8)
        law = rng.dirichlet(np.ones(9), size=3).reshape(3, 3, 1, 3)
        law[0, 1, 0, :] = 0.0
        law /= law.sum(axis=(1, 2, 3), keepdims=True)
        model = WiretapModel(law=law)
        enc = rng.dirichlet(np.ones(27), size=(2, 1)) * (rng.random((2, 1, 27)) < 0.3)
        enc[:, :, 5] = 0.0
        enc[:, :, 0] += 0.1
        enc /= enc.sum(axis=2, keepdims=True)
        return wiretap_code_from_tables(model, 3, enc, rng.integers(0, 2, 27), np.zeros(1, dtype=np.int64)), model

    def state_revealing_code(self):
        # z = x: half the (m, z^n) cells are unreachable, so the induced GP
        # code's filled rows send x^n rows the wiretap code never sends
        law = np.zeros((2, 2, 1, 2))
        for x in range(2):
            law[x, :, 0, x] = bsc(0.1)[x]
        model = WiretapModel(law=law)
        enc = np.zeros((2, 1, 4))
        enc[0, 0, 0] = enc[1, 0, 3] = 1.0
        return wiretap_code_from_tables(model, 2, enc, np.array([0, 0, 1, 1]), np.zeros(1, dtype=np.int64)), model

    @pytest.mark.parametrize(
        "case, block",
        [("sparse_n5", None), ("sparse_n5", 4099), ("ternary", None), ("ternary", 7),
         ("ternary", 1000), ("ternary", 4099), ("state_revealing", None), ("state_revealing", 7)],
    )
    def test_collapse_full_tv_is_that_of_the_two_joints(self, case, block, monkeypatch):
        # the default block holds whole message blocks of the n = 5 code and
        # part of the ternary code's one; blocks of 7, 1000 and 4099 cells
        # straddle message blocks, and 7 and 1000 split the ternary code's
        # 729-cell rows
        if block is not None:
            monkeypatch.setattr(divergence, "TV_BLOCK", block)
        code, model = {"sparse_n5": sparse_n5_code, "ternary": self.ternary_code,
                       "state_revealing": self.state_revealing_code}[case]()
        q_z = default_state_dist(model)
        gp_code, gp_model = induce_gp_code(code, model, q_z)
        want = total_variation(induced_joint(code, model).joint, induced_joint(gp_code, gp_model).joint)
        residual, full, collapsed = gp_collapse_residual(code, model, q_z)
        assert full == want
        assert residual <= 1e-12


class TestMarginalMemory:
    def test_exact_metrics_never_build_the_joint(self):
        code, model = sparse_n5_code()
        q_z = default_state_dist(model)

        def metrics():
            ij = induced_joint(code, model)
            error_probability(ij)
            reliability_identity_residual(ij)
            secrecy_identity_residual(ij, q_z)
            tv_to_target(ij, q_z)
            message_state_tv(ij, q_z)

        _, peak = traced_peak(metrics)
        # an eighth of the 32 MiB joint
        assert peak < (1 << 25) // 8

    def test_collapse_holds_one_block_per_side(self):
        code, model = sparse_n5_code()
        _, peak = traced_peak(lambda: gp_collapse_residual(code, model))
        # one TV_BLOCK of float64 cells per side, one block's sign mask and
        # difference, and 1 MiB for the power rows, decode maps and encoders
        assert peak <= 2 * 8 * divergence.TV_BLOCK + 9 * divergence.TV_BLOCK + (1 << 20)


class TestNumericalGuards:
    # P_e = 0.3 but the TV to uniform-and-correct is 0.5: the message
    # marginal is not uniform, so the reliability identity cannot hold
    SCRIPT = """
import numpy as np
from wtgp.codes import InducedJoint, error_probability
from wtgp.errors import NumericalError
from wtgp.pmf import Axis, JointPmf

mass = np.zeros((2, 1, 2, 1, 1))
mass[0, 0, 0, 0, 0] = 0.7
mass[1, 0, 0, 0, 0] = 0.3
axes = [Axis("m1", 2), Axis("m2", 1), Axis("mh1", 2), Axis("mh2", 1), Axis("z1", 1)]
ij = InducedJoint(JointPmf(axes, mass), "wiretap", 1, "exact", None, {})
try:
    print("returned", error_probability(ij))
except NumericalError as exc:
    print(exc.code, exc.exit_status, exc)
"""

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_broken_reliability_identity_raises(self, flags):
        src = os.path.dirname(os.path.dirname(wtgp.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        res = subprocess.run(
            [sys.executable, *flags, "-c", self.SCRIPT],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            check=True,
        )
        assert res.stdout.startswith("numerical 8 "), res.stdout
        residual = float(re.search(r"differ by (\S+),", res.stdout).group(1))
        assert abs(residual - 0.2) <= 1e-12


def cumulative_rows(rng, rows, cols, zero_share, ulps):
    """Cumulative pmf rows with zero-mass cells (repeated thresholds; a row
    may be all zero), scaled so that their totals lie a few ulps off 1."""
    p = rng.random((rows, cols)) * (rng.random((rows, cols)) >= zero_share)
    p /= np.maximum(p.sum(axis=1, keepdims=True), 1e-300)
    return np.cumsum(p, axis=1) * (1.0 + ulps * 2.0**-53)


def boundary_words(rng, cum, size):
    """Words at and around each threshold, 0, 2**64 - 1 and random ones.

    A word w stands for u = (w >> 11) * 2**-53; the words floor(c * 2**53)
    << 11 (plus any low bits) have u == c whenever c is a multiple of
    2**-53, and their neighbours fall just below or above it.
    """
    k = np.minimum(np.floor(cum.reshape(-1) * 2.0**53), 2.0**53 - 1).astype(np.uint64)
    at = k << np.uint64(11)
    low = rng.integers(0, 2048, at.size).astype(np.uint64)
    edges = [at, at | low, at | np.uint64(0x7FF), at - np.uint64(1), at + np.uint64(0x800)]
    extreme = np.array([0, 1, 2047, 2048, 2**64 - 2049, 2**64 - 2048, 2**64 - 1], dtype=np.uint64)
    random = rng.integers(0, 2**64, size, dtype=np.uint64)
    pool = rng.permutation(np.concatenate([*edges, random]))  # at - 1 wraps at 0: still a word
    return np.concatenate([extreme, pool])[:size]


class TestLetterKernel:
    """``_letter_draws`` on raw words against the float inverse CDF of their uniforms."""

    @staticmethod
    def reference(cum, rows, words):
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        rows = np.broadcast_to(rows, words.shape)
        return np.array(
            [np.searchsorted(cum[r, :-1], x, side="left") for r, x in zip(rows.flat, u.flat)],
            dtype=np.int64,
        ).reshape(words.shape)

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        cols=st.sampled_from([1, 2, 3, 4, 7, 255, 256, 257, 258]),
        zero_share=st.sampled_from([0.0, 0.3, 0.8]),
        ulps=st.integers(-4, 4),
        scalar_row=st.booleans(),
        shape=st.sampled_from([(40,), (8, 5)]),
    )
    def test_letters_match_searchsorted(
        self, seed, rows, cols, zero_share, ulps, scalar_row, shape
    ):
        rng = np.random.default_rng(seed)
        cum = cumulative_rows(rng, rows, cols, zero_share, ulps)
        size = math.prod(shape)
        words = boundary_words(rng, cum, size).reshape(shape)
        row = int(rng.integers(rows)) if scalar_row else rng.integers(0, rows, shape)
        thresholds = codes._word_thresholds(cum)
        got = codes._letter_draws(thresholds, row, words)
        np.testing.assert_array_equal(got, self.reference(cum, row, words))
        assert got.dtype == np.min_scalar_type(int(thresholds[1].sum()))

    @pytest.mark.parametrize("cols, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_counter_holds_every_column(self, cols, dtype):
        # 255 compared columns fit a byte, 256 do not; the top word passes all
        cum = np.arange(1, cols + 1, dtype=np.float64)[None] / cols
        words = np.array([0, 2**64 - 1], dtype=np.uint64)
        got = codes._letter_draws(codes._word_thresholds(cum), 0, words)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, [0, cols - 1])


class TestMonteCarlo:
    def test_partition_invariance(self):
        code, model = make_code()
        (whole,) = _mc_counts(code, model, 0, 6000, 11, [FULL_VIEW])
        (first,) = _mc_counts(code, model, 0, 2500, 11, [FULL_VIEW])
        (second,) = _mc_counts(code, model, 2500, 6000, 11, [FULL_VIEW])
        np.testing.assert_array_equal(whole, first + second)

    def test_split_counts_are_marginals_of_full(self):
        code, model = make_code()
        (full,) = _mc_counts(code, model, 0, 5000, 3, [FULL_VIEW])
        rel, sec = _mc_counts(
            code, model, 0, 5000, 3, [("m1", "m2", "mh1", "mh2"), ("m1", "m2", "z")]
        )
        np.testing.assert_array_equal(rel, full.sum(axis=4))
        np.testing.assert_array_equal(sec, full.sum(axis=(2, 3)))

    def test_batches_match_separate_calls(self):
        code, model = make_code()
        edges = (0, 2500, 6000, 6001, 9000)
        batches = list(codes._mc_batches(code, model, edges, 11, [FULL_VIEW, ("m1", "z")]))
        assert len(batches) == 4
        for (lo, hi), got in zip(zip(edges[:-1], edges[1:]), batches):
            want = _mc_counts(code, model, lo, hi, 11, [FULL_VIEW, ("m1", "z")])
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_each_trial_block_is_drawn_once(self, monkeypatch):
        # 10 batches of 2000 trials straddle 4 of the 5 blocks of 4096
        blocks = []
        draw_block = codes._trial_block_rng

        def counted(seed, block, rng=None):
            blocks.append(block)
            return draw_block(seed, block, rng)

        monkeypatch.setattr(codes, "_trial_block_rng", counted)
        rows = simulate_trend(
            product_model(), correlated_ux(), CodeRates(r1=0.5, r2=0.5, rt1=0.5, rt2=0.5),
            SimParams(n_list=(2,), eps=0.3, trials=20_000, batches=10),
        )
        assert rows[0]["trials"] == 20_000
        assert blocks == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("kind", ["codebook", "table", "gp", "codebook-pp"])
    @pytest.mark.parametrize("t0, t1", [(0, 6000), (2500, 9000)])
    def test_stream_is_pinned(self, kind, t0, t1):
        # sha256 prefixes of the little-endian int64 full-view counts: the
        # block keys, the draw order, the skipped uniforms and every letter
        # decision are part of the stream, so any change to them shows here
        pins = {
            ("codebook", 0): "0f4210b9a8f9d3c1",
            ("codebook", 2500): "0216ed9ddf311b59",
            ("table", 0): "7f50a7e40b3cc21a",
            ("table", 2500): "afd0ccebfa3bc6c6",
            ("gp", 0): "2d24d80efd863009",
            ("gp", 2500): "cca54fa68c506666",
            ("codebook-pp", 0): "c77dc0af4f33b8cc",
            ("codebook-pp", 2500): "5b232f1c7a0e4781",
        }
        code, model = stream_fixture(kind)
        (counts,) = _mc_counts(code, model, t0, t1, 11, [FULL_VIEW])
        assert counts.sum() == t1 - t0
        digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()[:16]
        assert digest == pins[kind, t0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        calls=st.lists(
            st.tuples(st.integers(0, 9), st.sampled_from([1, 2, 3, 7, 1 << 31, 1 << 40])),
            max_size=4,
        ),
        empty_buffer=st.booleans(),
        steps=st.integers(1, 3000),
    )
    def test_skipped_uniforms_match_drawn_ones(self, seed, calls, empty_buffer, steps):
        def start():
            rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
            for size, high in calls:
                rng.integers(0, high, size)
            if empty_buffer:  # an unread buffer at position 0
                state = rng.bit_generator.state
                state["buffer_pos"] = 0
                rng.bit_generator.state = state
            return rng

        drawn, skipped = start(), start()
        drawn.random(4 * steps)
        codes._skip_uniforms(skipped, 4 * steps)
        got, want = skipped.bit_generator.state, drawn.bit_generator.state
        assert got["buffer_pos"] == want["buffer_pos"]
        np.testing.assert_array_equal(got["state"]["counter"], want["state"]["counter"])
        np.testing.assert_array_equal(skipped.random(9), drawn.random(9))

    def test_seed_outside_64_bits_is_refused(self):
        # Philox takes a 64-bit key; masking a larger seed would alias it
        for seed in (-1, 2**64, 2**64 + 3):
            with pytest.raises(ValueError, match="seed"):
                codes._trial_block_rng(seed, 3)
        code, model = make_code()
        with pytest.raises(ValueError, match="seed"):
            induced_joint(code, model, mode="mc", trials=10, seed=2**64)
        top = codes._trial_block_rng(2**64 - 1, 3).random(4)
        assert not np.array_equal(top, codes._trial_block_rng(0, 3).random(4))

    @pytest.mark.parametrize("block", [0, 1, 5, 2**24 - 1, 2**24, 2**30 + 7])
    def test_moved_generator_is_a_fresh_one(self, block):
        # block 2**24 is the first whose counter needs a second 64-bit word
        fresh = np.random.Philox(key=np.uint64(2**64 - 5))
        fresh.advance(block * (1 << 40))
        want = np.random.Generator(fresh)
        moved = codes._trial_block_rng(2**64 - 5, 9)
        moved.integers(0, 3, 7)  # leaves a spare 32-bit half and a part-read buffer
        moved.random(3)
        got = codes._trial_block_rng(2**64 - 5, block, moved)
        assert got is moved
        np.testing.assert_array_equal(got.integers(0, 5, 99), want.integers(0, 5, 99))
        np.testing.assert_array_equal(got.random(9), want.random(9))
        np.testing.assert_array_equal(
            got.bit_generator.random_raw(7), want.bit_generator.random_raw(7)
        )

    def test_mc_joint_approaches_exact(self):
        from wtgp.divergence import total_variation

        code, model = make_code()
        ex = codes._estimate_view(induced_joint(code, model), with_z=True)
        mc = induced_joint(code, model, mode="mc", trials=200_000, seed=5)
        got = codes._estimate_view(mc, with_z=True)
        assert total_variation(ex, got) <= 0.01
        assert mc.mode == "mc" and mc.trials == 200_000
        assert mc.provenance["seed"] == 5

    def test_view_budget_boundary(self):
        # (m1, m2, mh1, mh2, z^2) = 2 * 2 * 2 * 2 * 4 = 64 count cells
        code, model = make_code()
        with pytest.raises(ResourceError, match="Monte Carlo view needs 64 cells, budget is 63"):
            induced_joint(code, model, mode="mc", trials=10, budget=63)
        assert induced_joint(code, model, mode="mc", trials=10, budget=64).joint.mass.size == 64

    def test_view_budget_refuses_before_counting(self, monkeypatch):
        # z_size 2 at n = 40 asks for 2 * 2 * 2**40 count cells; the check
        # must refuse before the counter runs or any array is allocated
        def no_counting(*args, **kwargs):
            raise AssertionError("counted trials past the budget")

        monkeypatch.setattr(codes, "_mc_counts", no_counting)
        model = pp_model()
        code = BlockCode(
            side="wiretap", n=40, m1_size=2, m2_size=1, rates=CodeRates(r1=1 / 40),
            informed=False, u_size=1, x_size=2, y1_size=2, y2_size=1, z_size=2,
            eps=None, dec1=np.zeros(1, dtype=np.int64), dec2=np.zeros(1, dtype=np.int64),
            encoder_table=np.full((2, 1, 1), 1.0),
        )
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=f"needs {4 << 40} cells, budget is 100000000"):
                induced_joint(code, model, mode="mc", trials=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_mc_metrics_work_on_sampled_joints(self):
        code, model = make_code()
        mc = induced_joint(code, model, mode="mc", trials=20_000, seed=1)
        q_z = default_state_dist(model)
        assert 0.0 <= error_probability(mc) <= 1.0
        rep = effective_secrecy(mc, q_z)
        assert rep.leakage >= -1e-12 and rep.stealth >= -1e-12


class TestGpTransform:
    def test_induced_encoder_rows_are_pmfs(self):
        code, model = make_code()
        gp_code, gp_model = induce_gp_code(code, model)
        assert gp_code.side == "gp"
        np.testing.assert_allclose(
            gp_code.encoder_table.sum(axis=3), 1.0, atol=1e-9
        )
        expect = analogous_gpbc(model, default_state_dist(model))
        np.testing.assert_allclose(gp_model.law, expect.law, atol=1e-15)
        assert gp_code.encoder_filled == ()

    def test_unreachable_state_rows_are_flagged(self):
        # z = x reveals the input, so half the (m, z^n) cells are
        # unreachable under a deterministic encoder
        law = np.zeros((2, 2, 1, 2))
        for x in range(2):
            for y in range(2):
                law[x, y, 0, x] = bsc(0.1)[x, y]
        model = WiretapModel(law=law)
        enc = np.zeros((2, 1, 2))
        enc[0, 0, 0] = enc[1, 0, 1] = 1.0
        code = wiretap_code_from_tables(
            model, 1, enc, np.array([0, 1]), np.zeros(1, dtype=np.int64)
        )
        gp_code, _ = induce_gp_code(code, model, FinitePmf([0.5, 0.5]))
        assert len(gp_code.encoder_filled) == 2
        for m1, m2, zf in gp_code.encoder_filled:
            np.testing.assert_allclose(gp_code.encoder_table[m1, m2, zf], 0.5)

    def test_collapse_identity(self):
        for seed in range(3):
            code, model = make_code(seed=seed)
            residual, full, collapsed = gp_collapse_residual(code, model)
            assert residual <= 1e-12
            ij = induced_joint(code, model)
            q_z = default_state_dist(model)
            assert abs(collapsed - message_state_tv(ij, q_z)) <= 1e-12

    def test_collapse_enumerates_wiretap_code_once(self, monkeypatch):
        sides = []
        real = codes.induced_joint

        def counting(code, model, *args, **kwargs):
            sides.append(code.side)
            return real(code, model, *args, **kwargs)

        monkeypatch.setattr(codes, "induced_joint", counting)
        code, model = make_code()
        gp_collapse_residual(code, model)
        assert sides == ["wiretap", "gp"]

    def test_collapse_matches_two_step_transform(self):
        # one shared enumeration gives the same numbers as inducing the GP
        # code first and enumerating the wiretap code again
        for seed in range(2):
            code, model = make_code(seed=seed)
            q_z = default_state_dist(model)
            gp_code, gp_model = induce_gp_code(code, model, q_z)
            ij_wt = induced_joint(code, model)
            full = total_variation(ij_wt.joint, induced_joint(gp_code, gp_model).joint)
            collapsed = message_state_tv(ij_wt, q_z)
            assert gp_collapse_residual(code, model, q_z) == (
                abs(full - collapsed),
                full,
                collapsed,
            )

    def test_error_probability_triangle(self):
        for seed in range(3):
            code, model = make_code(seed=seed)
            q_z = default_state_dist(model)
            gp_code, gp_model = induce_gp_code(code, model, q_z)
            pe_wt = error_probability(induced_joint(code, model))
            pe_gp = error_probability(induced_joint(gp_code, gp_model))
            tv = tv_to_target(induced_joint(code, model), q_z)
            assert pe_gp <= pe_wt + 2.0 * tv + 1e-12

    def test_needs_wiretap_side(self):
        code, model = make_code()
        gp_code, gp_model = induce_gp_code(code, model)
        with pytest.raises(ValueError):
            induce_gp_code(gp_code, model)


class TestConverse:
    def pp_gp(self, seed=0):
        model = pp_model()
        q_z = default_state_dist(model)
        p_x = JointPmf([Axis("u", 1), Axis("x", 2)], [[0.5, 0.5]])
        cb = sample_codebook(p_x, 2, CodeRates(r1=0.5, rt1=0.5), seed)
        code = superposition_code(cb, model, eps=0.3)
        return induce_gp_code(code, model, q_z)

    def test_induced_codes_have_nonnegative_gap(self):
        for seed in range(3):
            gp_code, gp_model = self.pp_gp(seed)
            rep = multiletter_converse_gap(gp_code, gp_model)
            assert rep.gap >= -1e-9
            assert abs(rep.eps_n - (1.0 / 2 + rep.rate * rep.error_probability)) \
                <= 1e-12
            assert len(rep.per_letter_terms) == 2

    def test_random_codes_have_nonnegative_gap(self):
        _, gp_model = self.pp_gp()
        for seed in range(30):
            g = random_gp_code(gp_model, 2, 2, seed)
            assert multiletter_converse_gap(g, gp_model).gap >= -1e-9

    def test_zero_rate_gap_is_at_least_one_over_n(self):
        _, gp_model = self.pp_gp()
        g = random_gp_code(gp_model, 2, 1, seed=4)
        rep = multiletter_converse_gap(g, gp_model)
        assert rep.rate == 0.0
        assert rep.gap >= 0.5 - 1e-9

    def test_perfect_single_letter_code(self):
        law = np.zeros((2, 2, 1, 1))
        law[0, 0, 0, 0] = law[1, 1, 0, 0] = 1.0
        model = WiretapModel(law=law)
        enc = np.zeros((2, 1, 2))
        enc[0, 0, 0] = enc[1, 0, 1] = 1.0
        code = wiretap_code_from_tables(
            model, 1, enc, np.array([0, 1]), np.zeros(1, dtype=np.int64)
        )
        gp_code, gp_model = induce_gp_code(code, model, FinitePmf([1.0]))
        rep = multiletter_converse_gap(gp_code, gp_model)
        assert abs(rep.gap - 1.0) <= 1e-9  # pure eps_n = 1/n slack
        assert rep.error_probability == 0.0

    def test_side_and_rate_guards(self):
        code, model = make_code()
        gp_code, gp_model = induce_gp_code(code, model)
        with pytest.raises(ValueError):
            multiletter_converse_gap(code, gp_model)
        with pytest.raises(ValueError):
            multiletter_converse_gap(gp_code, gp_model)  # m2 > 1

    def test_random_gp_code_needs_point_to_point(self):
        model = product_model()
        gp = analogous_gpbc(model, default_state_dist(model))
        with pytest.raises(ValueError):
            random_gp_code(gp, 2, 2, 0)


class TestSimulateTrend:
    def params(self, **kw):
        kw.setdefault("n_list", (2,))
        kw.setdefault("eps", 0.3)
        kw.setdefault("trials", 4000)
        kw.setdefault("batches", 4)
        return SimParams(**kw)

    def test_keys_and_ranges(self):
        rows = simulate_trend(
            product_model(), correlated_ux(),
            CodeRates(r1=0.5, r2=0.5, rt1=0.5, rt2=0.5), self.params()
        )
        assert len(rows) == 1
        row = rows[0]
        for key in (
            "n", "trials", "error_probability", "error_probability_se",
            "effective_secrecy", "effective_secrecy_se", "leakage",
            "stealth", "message_state_tv", "message_sizes", "seed",
        ):
            assert key in row
        assert row["n"] == 2 and row["trials"] == 4000
        assert 0.0 <= row["error_probability"] <= 1.0
        assert row["effective_secrecy"] >= -1e-12
        assert row["error_probability_se"] >= 0.0

    def test_deterministic(self):
        args = (
            product_model(), correlated_ux(),
            CodeRates(r1=0.5, r2=0.5, rt1=0.5, rt2=0.5),
        )
        a = simulate_trend(*args, self.params())
        b = simulate_trend(*args, self.params())
        assert a == b
        c = simulate_trend(*args, self.params(seed=9))
        assert c != a

    def test_trials_batches_guard(self):
        with pytest.raises(ValueError):
            simulate_trend(
                product_model(), correlated_ux(), CodeRates(r1=0.5),
                self.params(trials=2, batches=4),
            )

    def test_table_budget_forwarded(self):
        with pytest.raises(ResourceError):
            simulate_trend(
                product_model(), correlated_ux(), CodeRates(r1=0.5),
                self.params(table_budget=3),
            )


def test_block_code_side_validation():
    with pytest.raises(ValueError):
        BlockCode(
            side="relay", n=1, m1_size=1, m2_size=1, rates=CodeRates(r1=0.0),
            informed=False, u_size=1, x_size=2, y1_size=2, y2_size=1,
            z_size=1, eps=None, dec1=np.zeros(2, dtype=np.int64),
            dec2=np.zeros(1, dtype=np.int64),
            encoder_table=np.full((1, 1, 2), 0.5),
        )


def test_sequence_indices_refuse_int64_overflow():
    # 2**63 sequences of 63 bits still have int64 flat indices
    assert codes._seq_powers(2, 63)[0] == 1 << 62
    assert codes._seq_index(np.ones((1, 63), dtype=np.int64), 2)[0] == (1 << 63) - 1
    assert codes._seq_digits(np.array([(1 << 63) - 1]), 2, 63).sum() == 63
    assert codes._seq_powers(1, 200).tolist() == [1] * 200
    for call in (
        lambda: codes._seq_powers(2, 64),
        lambda: codes._seq_index(np.ones((1, 40), dtype=np.int64), 3),
        lambda: codes._seq_digits(np.array([5]), 3, 40),
        lambda: codes._seq_powers(7, 10**9),
    ):
        with pytest.raises(ResourceError, match="overflow int64 flat indices"):
            call()
