"""Block codes: codebooks, decode tables, induced joints, and the converse."""

import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import wtgp
from wtgp import codes
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


def trend_code(n, seed, eps):
    """Criterion 09's informed ternary fixture: Y1 = Y2 = X, binary Z."""
    pz = np.array([[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]])
    law = np.zeros((3, 3, 3, 2))
    for x in range(3):
        law[x, x, x, :] = pz[x]
    p_ux = JointPmf(
        [Axis("u", 2), Axis("x", 3)],
        np.array([[0.3, 0.2, 0.0], [0.0, 0.2, 0.3]]),
    )
    rates = CodeRates(r1=0.125, r2=0.125, rt1=0.375, rt2=0.375)
    cb = sample_codebook(p_ux, n, rates, seed)
    return superposition_code(cb, WiretapModel(law=law, informed_receiver=True), eps)


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

    def test_table_codes_have_no_reference(self):
        model = pp_model()
        enc = np.zeros((2, 1, 4))
        enc[0, 0, 0] = enc[1, 0, 3] = 1.0
        code = wiretap_code_from_tables(
            model, 2, enc, np.array([0, 0, 1, 1]), np.zeros(1, dtype=np.int64)
        )
        with pytest.raises(ValueError):
            typicality_decode(code, [0, 0], 1)


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
