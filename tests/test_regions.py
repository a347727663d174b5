"""Rate-bound families, support maxima, capacities, and the frontier search."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtgp import regions
from wtgp.channels import GpModel, WiretapModel, analogous_gpbc, informed_lift
from wtgp.divergence import mutual_information
from wtgp.errors import ClassificationError, ResourceError, ShapeError
from wtgp.pmf import Axis, FinitePmf, JointPmf
from wtgp.regions import (
    FAMILIES,
    AuxiliaryDist,
    RateBounds,
    SearchParams,
    aux_from_dict,
    aux_to_dict,
    blahut_arimoto,
    brute_force_oracle,
    default_u_size,
    eval_rate_bounds,
    export_region,
    family_side,
    gp_capacity,
    hausdorff_distance,
    rate_bounds_from_joint,
    reduce_auxiliary,
    region_frontier,
    single_letter_joint,
    support_maximum,
    sweep_directions,
    two_auxiliary_bounds,
    wt_capacity,
)

BA_BSC01 = 0.5310044064107188  # 1 - h(0.1)
DEGRADED_01_02 = 0.25293250129802924  # h(0.2) - h(0.1)


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def bsc(p):
    return np.array([[1.0 - p, p], [p, 1.0 - p]])


def product_wiretap(p1, p2, pz):
    law = np.einsum("xa,xb,xc->xabc", bsc(p1), bsc(p2), bsc(pz))
    return WiretapModel(law=law)


def noiseless_const_z():
    """Y1 = Y2 = X, Z constant."""
    law = np.zeros((2, 2, 2, 1))
    for x in range(2):
        law[x, x, x, 0] = 1.0
    return WiretapModel(law=law)


def degraded_wiretap(q1=0.1, q2=0.2):
    """Y1 = BSC(q1)(X), Z = BSC(q2)(X) with the eavesdropper degraded."""
    law = np.einsum("xa,xc->xac", bsc(q1), bsc(q2))[:, :, None, :]
    return WiretapModel(law=law)


def random_sd_model(rng):
    f = rng.integers(0, 2, size=2)
    rows = rng.dirichlet(np.ones(4), size=2)
    law = np.zeros((2, 2, 2, 2))
    for x in range(2):
        law[x, f[x]] = rows[x].reshape(2, 2)
    return WiretapModel(law=law)


def quick_params(**kw):
    kw.setdefault("restarts", 8)
    kw.setdefault("capacity_restarts", 16)
    kw.setdefault("directions", 16)
    return SearchParams(**kw)


class TestBlahutArimoto:
    def test_bsc_oracle(self):
        cap = blahut_arimoto(bsc(0.1))
        assert abs(cap - (1.0 - h2(0.1))) <= 1e-10
        assert abs(cap - BA_BSC01) <= 1e-10

    def test_useless_channel(self):
        assert blahut_arimoto(np.full((3, 2), 0.5)) <= 1e-10

    def test_identity_channel(self):
        assert abs(blahut_arimoto(np.eye(4)) - 2.0) <= 1e-10

    def test_nan_row_is_refused_at_once(self):
        # a NaN row sum used to pass the row check and run every iteration
        with pytest.raises(
            ValueError,
            match=r"channel rows must be pmfs: .*non-finite entry at cell \(0, 0\)",
        ):
            blahut_arimoto([[np.nan, 1.0], [0.5, 0.5]])

    def test_rows_keep_their_1e9_tolerance(self):
        w = bsc(0.1)
        w[0, 0] += 5e-10
        assert abs(blahut_arimoto(w) - BA_BSC01) <= 1e-8
        w[0, 0] += 2e-9
        with pytest.raises(ValueError, match=r"row \(0,\) sums to"):
            blahut_arimoto(w)


class TestRateBoundsFromJoint:
    def rand_joint(self, rng, sizes=(2, 2, 2, 2, 2)):
        names = ["u", "x", "y1", "y2", "z"]
        mass = rng.dirichlet(np.ones(int(np.prod(sizes))))
        return JointPmf([Axis(n, s) for n, s in zip(names, sizes)], mass)

    def test_axes_checked(self):
        j = JointPmf([Axis("u", 2), Axis("x", 2)], np.full((2, 2), 0.25))
        with pytest.raises(ShapeError):
            rate_bounds_from_joint("SD-WT", j)

    def test_sd_formulas_on_canonical_fixture(self):
        aux = AuxiliaryDist(
            "wiretap",
            JointPmf([Axis("u", 2), Axis("x", 2)], np.eye(2) / 2.0),
        )
        joint = single_letter_joint(noiseless_const_z(), aux)
        b = rate_bounds_from_joint("SD-WT", joint)
        assert abs(b.r1 - 1.0) <= 1e-12
        assert abs(b.r2 - 1.0) <= 1e-12
        assert abs(b.r_sum - 1.0) <= 1e-12

    def test_pd_ir_degenerate_inner_layer(self):
        # U = X makes the private rate I(X;Y1|U,Z) vanish while the
        # common layer keeps H(U) = 1 toward the noiseless receiver 2.
        aux = AuxiliaryDist(
            "wiretap",
            JointPmf([Axis("u", 2), Axis("x", 2)], np.eye(2) / 2.0),
        )
        joint = single_letter_joint(noiseless_const_z(), aux)
        b = rate_bounds_from_joint("PD-IR-WT", joint)
        assert abs(b.r1) <= 1e-12
        assert abs(b.r2 - 1.0) <= 1e-12
        assert b.r_sum is None

    def test_analogous_families_agree_bitwise(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            j = self.rand_joint(rng)
            for wt_fam, gp_fam in [("SD-WT", "SD-GP"), ("PD-IR-WT", "PD-IR-GP")]:
                a = rate_bounds_from_joint(wt_fam, j)
                b = rate_bounds_from_joint(gp_fam, j)
                assert (a.r1, a.r2, a.r_sum) == (b.r1, b.r2, b.r_sum)
                assert (a.raw_r1, a.raw_r2, a.raw_sum) == (
                    b.raw_r1,
                    b.raw_r2,
                    b.raw_sum,
                )
            a = rate_bounds_from_joint("PD-IR-WT-COOP", j, coop_capacity=0.1)
            b = rate_bounds_from_joint("PD-IR-GP-COOP", j, coop_capacity=0.1)
            assert (a.r1, a.r2, a.r_sum) == (b.r1, b.r2, b.r_sum)

    def test_coop_adds_conferencing_rate(self):
        rng = np.random.default_rng(21)
        j = self.rand_joint(rng)
        plain = rate_bounds_from_joint("PD-IR-WT", j)
        coop = rate_bounds_from_joint("PD-IR-WT-COOP", j, coop_capacity=0.25)
        assert abs(coop.raw_r2 - (plain.raw_r2 + 0.25)) <= 1e-12
        assert coop.r_sum is not None

    def test_coop_requires_capacity(self):
        j = self.rand_joint(np.random.default_rng(22))
        with pytest.raises(ValueError):
            rate_bounds_from_joint("PD-IR-WT-COOP", j)

    def test_axis_order_invariance(self):
        # reordering permutes the reduction order, so only roundoff-level
        # agreement is guaranteed
        rng = np.random.default_rng(23)
        j = self.rand_joint(rng)
        r = j.reordered(["z", "y2", "x", "u", "y1"])
        a = rate_bounds_from_joint("SD-WT", j)
        b = rate_bounds_from_joint("SD-WT", r)
        assert abs(a.r1 - b.r1) <= 1e-12
        assert abs(a.r2 - b.r2) <= 1e-12
        assert abs(a.r_sum - b.r_sum) <= 1e-12


class TestSupportMaximum:
    def bounds(self, r1, r2, rs):
        return RateBounds("SD-WT", r1, r2, rs, r1, r2, rs)

    def test_worked_example(self):
        s = support_maximum(self.bounds(0.6, 0.8, 1.0), 2.0, 1.0)
        assert abs(s.value - 1.6) <= 1e-15
        assert (s.r1, s.r2) == (0.6, 0.4)

    def test_no_sum_constraint(self):
        b = RateBounds("PD-IR-WT", 0.5, 0.7, None, 0.5, 0.7, None)
        s = support_maximum(b, 1.0, 1.0)
        assert abs(s.value - 1.2) <= 1e-15
        assert (s.r1, s.r2) == (0.5, 0.7)

    def test_tie_breaks_lexicographic(self):
        s = support_maximum(self.bounds(1.0, 1.0, 1.0), 1.0, 1.0)
        assert (s.r1, s.r2) == (1.0, 0.0)

    def test_axis_directions(self):
        b = self.bounds(0.6, 0.8, 1.0)
        assert support_maximum(b, 1.0, 0.0).value == 0.6
        assert support_maximum(b, 0.0, 1.0).value == 0.8

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            support_maximum(self.bounds(1, 1, 1), 0.0, 0.0)
        with pytest.raises(ValueError):
            support_maximum(self.bounds(1, 1, 1), -1.0, 1.0)


class TestCapacities:
    def test_fully_revealed_secrecy_is_zero(self):
        # Z = Y1: whatever receiver 1 learns, the eavesdropper learns too.
        law = np.zeros((2, 2, 1, 2))
        for x in range(2):
            for y in range(2):
                law[x, y, 0, y] = bsc(0.1)[x, y]
        res = wt_capacity(WiretapModel(law=law), quick_params())
        assert abs(res.value) <= 1e-9

    def test_noiseless_receiver_constant_state(self):
        law = np.zeros((2, 2, 1, 1))
        law[0, 0, 0, 0] = 1.0
        law[1, 1, 0, 0] = 1.0
        res = wt_capacity(WiretapModel(law=law), quick_params())
        assert abs(res.value - 1.0) <= 1e-4

    def test_degraded_pair_matches_entropy_difference(self):
        res = wt_capacity(degraded_wiretap(0.1, 0.2))
        assert abs(res.value - DEGRADED_01_02) <= 1e-6

    def test_informed_constant_state_matches_ba(self):
        law = np.einsum("xa->xa", bsc(0.1)).reshape(2, 2, 1, 1)
        model = WiretapModel(law=law, informed_receiver=True)
        res = wt_capacity(model, quick_params())
        assert abs(res.value - BA_BSC01) <= 1e-4

    def test_gp_additive_state_cancels(self):
        # y = x xor z with z known at the encoder: full 1 bit flows
        law = np.zeros((2, 2, 2, 1))
        for x in range(2):
            for z in range(2):
                law[x, z, x ^ z, 0] = 1.0
        model = GpModel(state_dist=FinitePmf([0.5, 0.5]), law=law)
        res = gp_capacity(model, quick_params())
        assert abs(res.value - 1.0) <= 1e-3

    def test_gp_constant_state_matches_ba(self):
        law = bsc(0.1).reshape(2, 1, 2, 1)
        model = GpModel(state_dist=FinitePmf([1.0]), law=law)
        res = gp_capacity(model, quick_params())
        assert abs(res.value - BA_BSC01) <= 1e-4

    def test_point_to_point_required(self):
        with pytest.raises(ClassificationError):
            wt_capacity(product_wiretap(0.1, 0.3, 0.25), quick_params())


class TestFrontier:
    def test_canonical_sd_frontier(self):
        # 17 directions place one ray exactly on the diagonal
        region = region_frontier(
            "SD-WT", noiseless_const_z(), quick_params(), sweep_directions(17)
        )
        pts = [(p.r1, p.r2) for p in region.boundary]
        assert any(abs(a - 1) <= 1e-6 and abs(b) <= 1e-6 for a, b in pts)
        assert any(abs(a) <= 1e-6 and abs(b - 1) <= 1e-6 for a, b in pts)
        diag = [s for s in region.supports if abs(s.lam1 - s.lam2) <= 1e-12]
        assert diag and abs(diag[0].value * math.sqrt(2.0) - 1.0) <= 1e-6

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            region_frontier("SD-??", noiseless_const_z(), quick_params())

    def test_family_model_side_checked(self):
        with pytest.raises(ClassificationError):
            region_frontier(
                "SD-GP", noiseless_const_z(), quick_params()
            )

    def test_oracle_matches_search_on_canonical_fixture(self):
        model = noiseless_const_z()
        dirs = sweep_directions(17)
        region = region_frontier("SD-WT", model, quick_params(), dirs)
        oracle = brute_force_oracle(model, "SD-WT", delta=0.1, directions=dirs)
        search_pts = [(p.r1, p.r2) for p in region.boundary]
        oracle_pts = [(s.r1, s.r2) for s in oracle.supports]
        assert hausdorff_distance(search_pts, oracle_pts) <= 1e-3

    def test_search_not_below_coarse_oracle(self):
        rng = np.random.default_rng(24)
        model = random_sd_model(rng)
        dirs = sweep_directions(8)
        region = region_frontier(
            "SD-WT", model, quick_params(directions=8)
        )
        oracle = brute_force_oracle(model, "SD-WT", delta=0.1, directions=dirs)
        for s, o in zip(region.supports, oracle.supports):
            assert s.value >= o.value - 1e-3

    def test_unconverged_directions_count_exhausted_directions(self):
        model = noiseless_const_z()
        dirs = sweep_directions(5)

        def run(max_passes):
            params = quick_params(max_passes=max_passes)
            region = region_frontier("SD-WT", model, params, dirs)
            meta = region.metadata
            assert meta["budget_exhausted"] == (meta["unconverged_directions"] > 0)
            winners = sum(not s.converged for s in region.supports)
            return meta["unconverged_directions"], winners

        # one pass leaves restarts still improving on every direction
        assert run(1) == (5, 5)
        # after five passes three directions still have an improving
        # restart, though only one direction's winning restart does
        assert run(5) == (3, 1)
        assert run(400) == (0, 0)

    def test_directions_are_independent_in_one_ascent(self):
        # all directions x restarts share one ascent.  Direction k draws its
        # restarts from spawn key k, so a direction in the same place of
        # another sweep must come out bitwise the same.  With 5 passes
        # four directions run out and one converges, so a step size or a
        # stopping rule shared across directions changes the samples or
        # the count.
        model = random_sd_model(np.random.default_rng(3))
        params = quick_params(max_passes=5)
        a, b, c, d, e = sweep_directions(5)

        def sweep(dirs):
            region = region_frontier("SD-WT", model, params, dirs)
            samples = [
                (s.value, s.r1, s.r2, s.achiever.dist.mass.tobytes(), s.converged)
                for s in region.supports
            ]
            return samples, region.metadata["unconverged_directions"]

        def exhausted(dirs):
            # per-direction flags from the counts of the growing prefixes
            counts = [0] + [sweep(dirs[:k])[1] for k in range(1, len(dirs) + 1)]
            return np.diff(counts).tolist()

        full, unconverged = sweep([a, b, c, d, e])
        assert unconverged == 4
        assert sweep([a, d])[0][0] == full[0]
        mixed, _ = sweep([a, e, c, b])
        assert (mixed[0], mixed[2]) == (full[0], full[2])
        # unconverged_directions counts each direction at most once
        assert exhausted([a, b, c, d, e]) == [1, 1, 1, 1, 0]
        assert exhausted([a, e, c, b])[::2] == [1, 1]

    def test_criterion_05_sweep_converges_on_every_direction(self):
        # criterion 05's random SD fixture and 33-direction sweep at the
        # default params: no direction may end with a restart still improving
        model = random_sd_model(np.random.default_rng(0))
        region = region_frontier("SD-WT", model, SearchParams(), sweep_directions(33))
        assert region.metadata["unconverged_directions"] == 0

    def test_capacity_oracle_degraded(self):
        oracle = brute_force_oracle(degraded_wiretap(), delta=0.1, u_size=3)
        assert abs(oracle.value - DEGRADED_01_02) <= 5e-3


def one_state_sd_pair():
    """A semi-deterministic wiretap model with |Z| = 1 and the GP model
    with the same law and the one-point state law."""
    rng = np.random.default_rng(41)
    law = np.zeros((2, 2, 2, 1))
    for x, f in enumerate(rng.integers(0, 2, size=2)):
        law[x, f, :, 0] = rng.dirichlet(np.ones(2))
    gp = GpModel(state_dist=FinitePmf([1.0]), law=law.transpose(0, 3, 1, 2))
    return WiretapModel(law=law), gp


def one_state_bsc_pair():
    """A point-to-point BSC(0.1) wiretap model with |Z| = 1 and the GP
    model with the same law and the one-point state law."""
    law = bsc(0.1).reshape(2, 2, 1, 1)
    gp = GpModel(state_dist=FinitePmf([1.0]), law=law.transpose(0, 3, 1, 2))
    return WiretapModel(law=law), gp


@st.composite
def mirror_cases(draw):
    """(base, grad, row): block-normalized rows whose entries reach down to
    1e-300 or are exactly 0, one positive entry per block at least, and
    gradients up to +-1e6."""
    n, blocks, row = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    cells = n * blocks * row
    entry = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))
    base = np.array(draw(st.lists(entry, min_size=cells, max_size=cells))).reshape(n, blocks, row)
    for i in range(n):
        for k in range(blocks):
            j = draw(st.integers(0, row - 1))
            base[i, k, j] = draw(st.floats(1e-300, 1.0))
    base /= base.sum(axis=2, keepdims=True)
    grad = draw(st.lists(st.floats(-1e6, 1e6), min_size=cells, max_size=cells))
    return base.reshape(n, -1), np.array(grad).reshape(n, -1), row


class TestAscent:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=mirror_cases())
    # the zero entry has the larger gradient: shifting by the plain block
    # maximum would underflow the positive entry to 0 and divide 0 by 0
    @example(case=(np.array([[0.0, 1.0]]), np.array([[5.0, 0.0]]), 2))
    def test_mirror_candidates_are_pmfs_at_every_step(self, case):
        base, grad, row = case
        steps = regions._STEP0 * 0.5 ** np.arange(regions._LADDER)
        cand = regions._mirror_candidates(base, grad, steps, row)
        assert cand.shape == (len(base), len(steps), base.shape[1])
        assert np.isfinite(cand).all() and (cand >= 0.0).all()
        sums = cand.reshape(len(base), len(steps), -1, row).sum(axis=3)
        assert np.abs(sums - 1.0).max() <= 1e-12
        # a zero entry stays 0
        assert (cand[np.broadcast_to((base == 0.0)[:, None], cand.shape)] == 0.0).all()

    def test_objective_calls_per_pass_do_not_depend_on_states(self, monkeypatch):
        # one pass is one ladder call over the whole (z, u, x) vector,
        # however many state blocks it has; the gradient scores no rows
        calls = []
        score = regions._score

        def counted(*args, **kwargs):
            calls.append(1)
            return score(*args, **kwargs)

        monkeypatch.setattr(regions, "_score", counted)
        params = SearchParams(capacity_restarts=2, max_passes=1)
        counts = []
        for q_z in ([1.0], [0.2, 0.3, 0.5]):
            law = np.repeat(bsc(0.1)[:, None, :, None], len(q_z), axis=1)
            calls.clear()
            gp_capacity(GpModel(state_dist=FinitePmf(q_z), law=law), params)
            counts.append(len(calls))
        # the starts and one pass of one call
        assert counts == [2, 2]

    def test_one_state_gp_search_is_the_wiretap_search(self):
        # with one state the GP vector is one block, so the ascent, its
        # starts and its floats are the wiretap ones
        params = quick_params(max_passes=50)
        wt, gp = one_state_bsc_pair()
        a, b = wt_capacity(wt, params), gp_capacity(gp, params)
        assert (a.value, a.raw_value, a.converged) == (b.value, b.raw_value, b.converged)
        assert a.achiever.dist.mass.tobytes() == b.achiever.dist.rows.tobytes()
        wt, gp = one_state_sd_pair()
        dirs = sweep_directions(5)
        a = region_frontier("SD-WT", wt, params, dirs)
        b = region_frontier("SD-GP", gp, params, dirs)
        for s, t in zip(a.supports, b.supports, strict=True):
            assert (s.value, s.r1, s.r2, s.converged) == (t.value, t.r1, t.r2, t.converged)
            assert s.achiever.dist.mass.tobytes() == t.achiever.dist.rows.tobytes()
        assert a.boundary == b.boundary
        assert a.metadata["unconverged_directions"] == b.metadata["unconverged_directions"]


def sparse_law(rng, rows, cells):
    """(rows, cells) pmf rows with about a third of their cells 0; every
    other cell holds at least 0.05 / (cells + 1)."""
    keep = rng.random((rows, cells)) < 0.7
    keep[np.arange(rows), rng.integers(0, cells, size=rows)] = True
    law = np.where(keep, rng.dirichlet(np.ones(cells), size=rows) + 0.05, 0.0)
    return law / law.sum(axis=1, keepdims=True)


@st.composite
def gradient_cases(draw):
    """(model, u_size, theta): a random wiretap or GP model with zero law
    cells and a cooperation link, and 4 interior rows, every entry at
    least 1e-3."""
    gp = draw(st.booleans())
    nx, ny1, ny2, nz, nu = (draw(st.integers(lo, 3)) for lo in (2, 1, 1, 1, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if gp:
        law = sparse_law(rng, nx * nz, ny1 * ny2).reshape(nx, nz, ny1, ny2)
        q_z = FinitePmf(rng.dirichlet(np.ones(nz)) * 0.8 + 0.2 / nz)
        model = GpModel(state_dist=q_z, law=law, coop_capacity=0.05)
    else:
        law = sparse_law(rng, nx, ny1 * ny2 * nz).reshape(nx, ny1, ny2, nz)
        model = WiretapModel(law=law, coop_capacity=0.05)
    row = nu * nx
    theta = 1e-3 + (1.0 - row * 1e-3) * rng.dirichlet(np.ones(row), size=(4, nz if gp else 1))
    return model, nu, theta.reshape(4, -1)


GRAD_EPS = 1e-6
GRAD_TOL = 1e-6  # fixed before the first run; every difference seen was below 2e-8


def central_difference(model, u, objective, theta, lam):
    """(rows, total) central differences of ``_score`` at half-width
    GRAD_EPS, and the (rows, 2, total, total) perturbed rows."""
    n, total = theta.shape
    pert = np.eye(total) * GRAD_EPS
    rows = np.stack([theta[:, None] + pert, theta[:, None] - pert], axis=1)
    lam_rows = None if lam is None else tuple(np.repeat(v, 2 * total, axis=0) for v in lam)
    vals = regions._score(model, u, objective, rows.reshape(-1, total), lam_rows)[:, 0]
    vals = vals.reshape(n, 2, total)
    return (vals[:, 0] - vals[:, 1]) / (2.0 * GRAD_EPS), rows


def raw_bounds(model, u, kind, theta):
    return regions._rates(kind, regions._ModelMarginals(model, theta, u), model.coop_capacity)


class TestGradient:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=gradient_cases())
    def test_gradient_matches_central_difference(self, case):
        model, u, theta = case
        n, total = theta.shape
        for name, terms in regions._EXPRESSIONS.items():
            # the gradient maps back -log2 m alone: each term's 1/ln 2
            # cancels because the signs of every expression sum to 0
            assert sum(sign for sign, _ in terms) == 0
            fd, _ = central_difference(model, u, name, theta, None)
            grad = regions._gradient(model, u, name, theta)
            assert np.abs(grad - fd).max() <= GRAD_TOL, name
        for kind in regions._KIND_ROWS:
            for lam1, lam2 in [(1.0, 0.0), (0.6, 0.8), (0.0, 1.0)]:
                lam = (np.full((n, 1), lam1), np.full((n, 1), lam2))
                fd, rows = central_difference(model, u, kind, theta, lam)
                grad = regions._gradient(model, u, kind, theta, lam)
                # a coordinate whose perturbation moves a row onto another
                # vertex piece has no central difference of that piece
                r = raw_bounds(model, u, kind, theta)
                w = regions._support_weights(*r, lam[0][:, 0], lam[1][:, 0])
                rr = raw_bounds(model, u, kind, rows.reshape(-1, total))
                wr = regions._support_weights(*rr, lam1, lam2).reshape(3, n, 2, total)
                same = (wr == w[:, :, None, None]).all(axis=(0, 2))
                assert np.abs(grad - fd)[same].max(initial=0.0) <= GRAD_TOL, (kind, lam1)
                # every bound the direction weighs is negative: the support
                # is the clamped 0, whose gradient is exactly 0
                weighed = [b for b, on in zip(r, (lam1 > 0, lam2 > 0, True)) if on and b is not None]
                clamped = np.logical_and.reduce([b < 0.0 for b in weighed])
                assert (grad[clamped] == 0.0).all(), (kind, lam1)

    def test_ties_keep_the_first_piece(self):
        one = np.ones(1)
        # a bound of exactly 0 is its own clamp: the clamp keeps the bound
        w = regions._support_weights(0.0 * one, 0.0 * one, None, 0.0, 1.0)
        assert w[:, 0].tolist() == [0.0, 1.0, 0.0]
        # r1 = r_sum: the minimum keeps r1
        w = regions._support_weights(0.4 * one, 0.1 * one, 0.4 * one, 1.0, 0.0)
        assert w[:, 0].tolist() == [1.0, 0.0, 0.0]


class TestGridOracle:
    def test_one_state_gp_grid_is_the_wiretap_grid(self):
        wt, gp = one_state_sd_pair()
        a = brute_force_oracle(wt, delta=0.1, u_size=3)
        b = brute_force_oracle(gp, delta=0.1, u_size=3)
        assert a.value == b.value
        assert a.grid_points == b.grid_points
        assert np.array_equal(a.achiever.dist.mass, b.achiever.dist.rows[0])

    def test_one_state_gp_supports_equal_wiretap_supports(self):
        wt, gp = one_state_sd_pair()
        dirs = sweep_directions(9)
        a = brute_force_oracle(wt, "SD-WT", delta=0.1, directions=dirs)
        b = brute_force_oracle(gp, "SD-GP", delta=0.1, directions=dirs)
        for s, t in zip(a.supports, b.supports, strict=True):
            assert (s.value, s.r1, s.r2) == (t.value, t.r1, t.r2)
            assert np.array_equal(s.achiever.dist.mass, t.achiever.dist.rows[0])

    def test_gp_budget_checked_before_allocating(self):
        # 53 130 grid rows per state, 53 130**2 product points
        gp = analogous_gpbc(degraded_wiretap())
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="gp oracle needs 2822796900 grid points"):
                brute_force_oracle(gp, delta=0.05, u_size=3, budget=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_kept_as_compositions(self, monkeypatch):
        # with small chunks the grid is the peak: 53 130 points x 6 cells
        # are held as int16 compositions and turned into float64 one chunk
        # at a time, never all at once
        monkeypatch.setattr(regions, "_CHUNK_CELLS", 1 << 12)
        model = degraded_wiretap()
        float_grid = 53_130 * 6 * 8
        tracemalloc.start()
        try:
            oracle = brute_force_oracle(model, delta=0.05, u_size=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert oracle.grid_points == 53_130
        assert peak < float_grid
        monkeypatch.undo()
        assert brute_force_oracle(model, delta=0.05, u_size=3).value == oracle.value


class TestHausdorff:
    def test_identical(self):
        pts = [(0.0, 1.0), (1.0, 0.0), (0.7, 0.7)]
        assert hausdorff_distance(pts, pts) == 0.0

    def test_scaled_square(self):
        # direction-sampled support differences approach the true Hausdorff
        # distance from below as the grid refines
        a = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        b = [(0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
        d = hausdorff_distance(a, b)
        assert abs(d - math.sqrt(2.0) / 2.0) <= 1e-5
        assert d <= math.sqrt(2.0) / 2.0 + 1e-12


class TestAuxiliaryReduction:
    def rand_vtx(self, rng):
        mass = rng.dirichlet(np.ones(8))
        return JointPmf([Axis("v", 2), Axis("t", 2), Axis("x", 2)], mass)

    def test_dominance_and_case_selection(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            model = random_sd_model(rng)
            p_vtx = self.rand_vtx(rng)
            red = reduce_auxiliary(p_vtx, model)
            assert red.case in (1, 2)
            if red.case == 1:
                assert red.case1_margin <= 1e-12
            else:
                assert red.case1_margin > -1e-12
                assert red.case2_margin >= -1e-12
            two = two_auxiliary_bounds(p_vtx, model)
            one = eval_rate_bounds("SD-WT", red.aux, model)
            assert one.r1 >= two.r1 - 1e-9
            assert one.r2 >= two.r2 - 1e-9
            assert one.r_sum >= two.r_sum - 1e-9

    def test_case1_keeps_cardinality(self):
        # independent T never helps receiver 2: U = V suffices
        rng = np.random.default_rng(26)
        model = random_sd_model(rng)
        pv = rng.dirichlet(np.ones(2))
        pt = rng.dirichlet(np.ones(2))
        px = rng.dirichlet(np.ones(2))
        mass = np.einsum("v,t,x->vtx", pv, pt, px)
        red = reduce_auxiliary(
            JointPmf([Axis("v", 2), Axis("t", 2), Axis("x", 2)], mass), model
        )
        assert red.aux.dist.axis_size("u") == 2


class TestAuxiliarySerialization:
    def test_round_trip(self):
        aux = AuxiliaryDist(
            "wiretap",
            JointPmf([Axis("u", 3), Axis("x", 2)], np.full((3, 2), 1 / 6)),
        )
        back = aux_from_dict(aux_to_dict(aux))
        assert back.side == "wiretap"
        np.testing.assert_array_equal(back.dist.mass, aux.dist.mass)

    def test_u_cap_enforced(self):
        assert default_u_size(degraded_wiretap()) == 3
        model = noiseless_const_z()
        big = AuxiliaryDist(
            "wiretap",
            JointPmf([Axis("u", 5), Axis("x", 2)], np.full((5, 2), 0.1)),
        )
        with pytest.raises(ValueError):
            eval_rate_bounds("SD-WT", big, model)
        ok = AuxiliaryDist(
            "wiretap",
            JointPmf([Axis("u", 5), Axis("x", 2)], np.full((5, 2), 0.1)),
            allow_large_u=True,
        )
        eval_rate_bounds("SD-WT", ok, model)


class TestInformedLiftConsistency:
    def test_informed_capacity_equals_lifted_objective(self):
        # the informed objective I(X;Y1|Z) evaluated directly must agree
        # with I(X;(Y1,Z)) - I(X;Z) on the lifted model
        model = WiretapModel(
            law=np.einsum("xa,xc->xac", bsc(0.1), bsc(0.25))[:, :, None, :],
            informed_receiver=True,
        )
        lifted = informed_lift(model)
        p_x = JointPmf([Axis("u", 1), Axis("x", 2)], [[0.5, 0.5]])
        aux = AuxiliaryDist("wiretap", p_x)
        j = single_letter_joint(model, aux)
        direct = mutual_information(j, {"x"}, {"y1", "z"}) - mutual_information(
            j, {"x"}, {"z"}
        )
        jl = single_letter_joint(lifted, aux)
        lifted_val = mutual_information(jl, {"x"}, {"y1"}) - mutual_information(
            jl, {"x"}, {"z"}
        )
        assert abs(direct - lifted_val) <= 1e-12


class TestExportRegion:
    def test_csv_and_json(self, tmp_path):
        region = region_frontier("SD-WT", noiseless_const_z(), quick_params())
        csv_path = tmp_path / "region.csv"
        json_path = tmp_path / "region.json"
        export_region(region, csv_path, json_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "lambda1,lambda2,support_value,R1,R2"
        assert len(lines) == 1 + len(region.supports)
        assert json_path.exists()


def test_family_side_labels():
    assert family_side("SD-WT") == "wiretap"
    assert family_side("PD-IR-GP-COOP") == "gp"
    assert set(FAMILIES) == {
        "SD-WT",
        "SD-GP",
        "PD-IR-WT",
        "PD-IR-GP",
        "PD-IR-WT-COOP",
        "PD-IR-GP-COOP",
    }


def test_sweep_directions_cover_quadrant():
    dirs = sweep_directions(5)
    assert dirs[0] == (1.0, 0.0)
    assert abs(dirs[-1][0]) <= 1e-15 and abs(dirs[-1][1] - 1.0) <= 1e-15
    for a, b in dirs:
        assert abs(math.hypot(a, b) - 1.0) <= 1e-12
