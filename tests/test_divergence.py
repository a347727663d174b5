"""Divergences, information measures, and typicality."""

import math
import tracemalloc

import numpy as np
import pytest

from wtgp import divergence
from wtgp.divergence import (
    MI_CONTINUITY_EPS_MAX,
    conditional_entropy,
    conditional_mutual_information,
    empirical_pmf,
    entropy,
    is_typical,
    mi_continuity_bound,
    mutual_information,
    relative_entropy,
    total_variation,
)
from wtgp.errors import ShapeError
from wtgp.pmf import Axis, FinitePmf, JointPmf

D_HALF_VS_QUARTER = 1.0 - 0.5 * math.log2(3.0)  # D((.5,.5)||(.25,.75))
MI_HAND = 1.0 - (-0.8 * math.log2(0.8) - 0.2 * math.log2(0.2))  # (.4,.1;.1,.4)


def rand_pmf(rng, k):
    return FinitePmf(rng.dirichlet(np.ones(k)))


def rand_joint(rng, sizes, names):
    mass = rng.dirichlet(np.ones(int(np.prod(sizes))))
    return JointPmf([Axis(n, s) for n, s in zip(names, sizes)], mass)


class TestTotalVariation:
    def test_identical(self):
        p = FinitePmf([0.3, 0.7])
        assert total_variation(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert total_variation(FinitePmf([1.0, 0.0]), FinitePmf([0.0, 1.0])) == 1.0

    def test_hand_value(self):
        assert total_variation(FinitePmf([0.5, 0.5]), FinitePmf([0.75, 0.25])) == 0.25

    def test_axis_mismatch(self):
        with pytest.raises(ShapeError):
            total_variation(FinitePmf([0.5, 0.5]), FinitePmf([1 / 3] * 3))

    def test_symmetry_range_triangle(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            p, q, r = (rand_pmf(rng, 4) for _ in range(3))
            tpq = total_variation(p, q)
            assert 0.0 <= tpq <= 1.0
            assert tpq == total_variation(q, p)
            assert total_variation(p, r) <= tpq + total_variation(q, r) + 1e-12

    def test_bounded_function_expectation_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p, q = rand_pmf(rng, 5), rand_pmf(rng, 5)
            b = float(rng.uniform(0.1, 3.0))
            f = rng.uniform(-b, b, size=5)
            gap = abs(float(f @ p.mass) - float(f @ q.mass))
            assert gap <= 2.0 * b * total_variation(p, q) + 1e-12

    def test_marginal_tv_dominated_by_joint_tv(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            p = rand_joint(rng, (3, 4), ["x", "y"])
            q = rand_joint(rng, (3, 4), ["x", "y"])
            tj = total_variation(p, q)
            tm = total_variation(p.marginalize(["x"]), q.marginalize(["x"]))
            assert tm <= tj + 1e-12

    def test_shared_kernel_preserves_tv_exactly(self):
        rng = np.random.default_rng(13)
        kern = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
        axes = [Axis("x", 2), Axis("y", 3)]
        for _ in range(300):
            p, q = rand_pmf(rng, 2), rand_pmf(rng, 2)
            jp = JointPmf(axes, p.mass[:, None] * kern)
            jq = JointPmf(axes, q.mass[:, None] * kern)
            assert abs(
                total_variation(jp, jq) - total_variation(p, q)
            ) <= 1e-12

    def test_large_pmfs_need_no_second_buffer(self):
        # beyond the one difference buffer only a boolean mask (an eighth
        # of an input) may be allocated; |diff| and the one-sided sum
        # reuse the buffer
        rng = np.random.default_rng(5)
        size = 1 << 21
        p, q = (FinitePmf(rng.dirichlet(np.ones(size))) for _ in range(2))
        half_l1 = 0.5 * float(np.abs(p.mass - q.mass).sum())
        tracemalloc.start()
        try:
            tv = total_variation(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tv == half_l1
        assert peak <= 1.25 * p.mass.nbytes

    @pytest.mark.parametrize("block", [1, 5, 7, 64])
    def test_blocks_agree_with_one_block(self, monkeypatch, block):
        # blocks of 5 and 7 cells straddle the edges of every axis of the
        # (3, 4, 6) joints; q is stored in another axis order, so it is
        # aligned before the blocks are cut
        rng = np.random.default_rng(21)
        axes = [Axis("a", 3), Axis("b", 4), Axis("c", 6)]
        for _ in range(50):
            pm = rng.dirichlet(np.ones(72)) * (rng.random(72) < 0.7)
            p = JointPmf(axes, pm / pm.sum())
            q = JointPmf(axes, rng.dirichlet(np.ones(72))).reordered(["c", "a", "b"])
            whole = total_variation(p, q)  # 72 cells, one block
            with monkeypatch.context() as m:
                m.setattr(divergence, "TV_BLOCK", block)
                blocked = total_variation(p, q)
            assert abs(blocked - whole) <= 1e-15


class TestRelativeEntropy:
    def test_identical(self):
        p = FinitePmf([0.3, 0.7])
        assert relative_entropy(p, p) == 0.0

    def test_point_mass_vs_uniform(self):
        assert relative_entropy(FinitePmf([1.0, 0.0]), FinitePmf.uniform(2)) == 1.0

    def test_hand_value(self):
        d = relative_entropy(FinitePmf([0.5, 0.5]), FinitePmf([0.25, 0.75]))
        assert abs(d - D_HALF_VS_QUARTER) <= 1e-12

    def test_infinite_when_not_absolutely_continuous(self):
        d = relative_entropy(FinitePmf([0.5, 0.5]), FinitePmf([1.0, 0.0]))
        assert d == math.inf

    def test_zero_mass_cells_ignored(self):
        d = relative_entropy(FinitePmf([0.0, 1.0]), FinitePmf([0.0, 1.0]))
        assert d == 0.0

    def test_pinsker(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            p, q = rand_pmf(rng, 4), rand_pmf(rng, 4)
            d = relative_entropy(p, q)
            if math.isfinite(d):
                assert total_variation(p, q) <= math.sqrt(d / 2.0) + 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            p, q = rand_pmf(rng, 3), rand_pmf(rng, 3)
            assert relative_entropy(p, q) >= -1e-12


class TestMutualInformation:
    def test_independent_is_zero(self):
        j = JointPmf(
            [Axis("x", 2), Axis("y", 2)], np.outer([0.3, 0.7], [0.6, 0.4])
        )
        assert mutual_information(j, ["x"], ["y"]) <= 1e-15

    def test_correlated_uniform_pair(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.5, 0.0], [0.0, 0.5]])
        assert abs(mutual_information(j, ["x"], ["y"]) - 1.0) <= 1e-12

    def test_hand_value(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.4, 0.1], [0.1, 0.4]])
        assert abs(mutual_information(j, ["x"], ["y"]) - MI_HAND) <= 1e-12

    def test_overlapping_axes_rejected(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(ValueError):
            mutual_information(j, ["x"], ["x"])

    def test_entropy_expansion_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            j = rand_joint(rng, (3, 4), ["x", "y"])
            mi = mutual_information(j, ["x"], ["y"])
            assert mi >= 0.0
            expand = (
                entropy(j, ["x"]) + entropy(j, ["y"]) - entropy(j, ["x", "y"])
            )
            assert abs(mi - expand) <= 1e-10

    def test_conditional_mi_chain(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            j = rand_joint(rng, (2, 3, 2), ["x", "y", "z"])
            chain = mutual_information(j, ["x"], ["y", "z"])
            split = mutual_information(j, ["x"], ["y"]) + (
                conditional_mutual_information(j, ["x"], ["z"], ["y"])
            )
            assert abs(chain - split) <= 1e-10


class TestEntropy:
    def test_uniform(self):
        assert abs(entropy(FinitePmf.uniform(8)) - 3.0) <= 1e-12

    def test_conditional_entropy_hand(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.4, 0.1], [0.1, 0.4]])
        hxgy = conditional_entropy(j, ["x"], ["y"])
        assert abs(hxgy - (1.0 - MI_HAND)) <= 1e-12

    def test_overlap_rejected(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(ValueError):
            conditional_entropy(j, ["x"], ["x"])


class TestTypicality:
    def test_empirical_pmf(self):
        nu = empirical_pmf([0, 1, 1, 0], 3)
        np.testing.assert_array_equal(nu.mass, [0.5, 0.5, 0.0])

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError):
            empirical_pmf([0, 3], 2)

    def test_exact_match_eps_zero(self):
        assert is_typical([0, 1], FinitePmf.uniform(2), 0.0)

    def test_skewed_pair_fails_at_half(self):
        assert not is_typical([0, 0], FinitePmf.uniform(2), 0.5)

    def test_huge_eps_accepts_full_support(self):
        p = FinitePmf([0.25, 0.75])
        assert is_typical([0, 0, 0, 1], p, 1e6)

    def test_zero_reference_letters_never_allowed(self):
        p = FinitePmf([1.0, 0.0])
        assert not is_typical([0, 1], p, 1e6)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            is_typical([0], FinitePmf.uniform(2), -0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # NaN, and inf through inf * 0 = NaN, would call every sequence atypical
        with pytest.raises(ValueError, match="eps must be finite and >= 0"):
            is_typical([0, 1], FinitePmf.uniform(2), eps)


class TestMiContinuityBound:
    def test_plug_in(self):
        assert abs(mi_continuity_bound(0.25, 1, 2, 2) - 2.5) <= 1e-12

    def test_vanishes_with_eps(self):
        assert mi_continuity_bound(1e-12, 1, 2, 2) <= 1e-9

    def test_domain_error_above_threshold(self):
        with pytest.raises(ValueError):
            mi_continuity_bound(MI_CONTINUITY_EPS_MAX + 1e-6, 1, 2, 2)

    def test_dominates_mi_gap(self):
        rng = np.random.default_rng(18)
        axes = [Axis("x", 2), Axis("y", 3)]
        for _ in range(300):
            mu = rng.dirichlet(np.ones(6))
            rho = rng.dirichlet(np.ones(6))
            t = float(rng.uniform(0.0, 0.2))
            nu = (1.0 - t) * mu + t * rho
            jm = JointPmf(axes, mu)
            jn = JointPmf(axes, nu)
            tv = total_variation(jm, jn)
            if tv <= 0.0:
                continue
            gap = abs(
                mutual_information(jm, ["x"], ["y"])
                - mutual_information(jn, ["x"], ["y"])
            )
            assert gap <= mi_continuity_bound(tv, 1, 2, 3) + 1e-12
