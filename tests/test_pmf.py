"""Construction, marginalization, conditioning, and extension of pmfs."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtgp.errors import ResourceError, RowSumError, ShapeError
from wtgp.pmf import (
    Axis,
    FinitePmf,
    JointPmf,
    StochasticKernel,
    aligned_masses,
    check_rows,
    iid_extension,
)

# derandomized, so that the suite draws the same examples on every run
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def random_joint(rng, sizes, names=None):
    names = names or [f"a{i}" for i in range(len(sizes))]
    mass = rng.dirichlet(np.ones(int(np.prod(sizes))))
    return JointPmf([Axis(n, s) for n, s in zip(names, sizes)], mass)


class TestFinitePmf:
    def test_basic(self):
        p = FinitePmf([0.25, 0.75])
        assert p.alphabet_size == 2
        assert p.mass.sum() == 1.0

    def test_uniform(self):
        u = FinitePmf.uniform(4)
        np.testing.assert_array_equal(u.mass, np.full(4, 0.25))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FinitePmf([1.25, -0.25])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FinitePmf([0.5, 0.4])

    def test_immutable(self):
        p = FinitePmf([0.5, 0.5])
        with pytest.raises((AttributeError, ValueError)):
            p.mass[0] = 0.3

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sums to nan"):
            FinitePmf([np.nan, 1.0])


class TestJointPmf:
    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ShapeError):
            JointPmf([Axis("x", 2), Axis("x", 2)], np.full((2, 2), 0.25))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            JointPmf([Axis("x", 2), Axis("y", 3)], np.full((2, 2), 0.25))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="sums to nan"):
            JointPmf([Axis("a", 2)], [np.nan, 0.5])

    def test_constructor_copies_the_callers_array(self):
        mass = np.full((2, 2), 0.25)
        j = JointPmf([Axis("x", 2), Axis("y", 2)], mass)
        mass[0, 0] = 0.7
        np.testing.assert_array_equal(j.mass, np.full((2, 2), 0.25))
        assert mass.flags.writeable

    def test_adopt_takes_the_array_read_only(self):
        mass = np.full((2, 2), 0.25)
        j = JointPmf._adopt([Axis("x", 2), Axis("y", 2)], mass)
        assert np.shares_memory(j.mass, mass)
        assert not mass.flags.writeable
        with pytest.raises(ValueError, match="negative entry"):
            JointPmf._adopt([Axis("x", 2)], np.array([1.5, -0.5]))

    def test_marginalize_full_set_is_identity(self):
        rng = np.random.default_rng(0)
        j = random_joint(rng, (2, 3))
        m = j.marginalize(["a0", "a1"])
        np.testing.assert_array_equal(m.mass, j.mass)

    def test_marginalize_product_recovers_factor(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.2, 0.5, 0.3])
        j = JointPmf([Axis("x", 2), Axis("y", 3)], np.outer(p, q))
        np.testing.assert_allclose(j.single("y").mass, q, atol=1e-15)

    def test_marginalize_hand_example(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.4, 0.1], [0.1, 0.4]])
        np.testing.assert_allclose(j.single("x").mass, [0.5, 0.5], atol=1e-15)

    def test_marginalize_unknown_axis(self):
        j = random_joint(np.random.default_rng(1), (2, 2))
        with pytest.raises(ShapeError):
            j.marginalize(["nope"])

    def test_reordered_transposes(self):
        rng = np.random.default_rng(2)
        j = random_joint(rng, (2, 3), ["x", "y"])
        r = j.reordered(["y", "x"])
        np.testing.assert_array_equal(r.mass, j.mass.T)
        assert r.axis_names == ("y", "x")

    def test_marginalization_order_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            j = random_joint(rng, (2, 3, 2), ["x", "y", "z"])
            a = j.marginalize(["x", "z"]).mass
            b = j.reordered(["z", "y", "x"]).marginalize(["x", "z"])
            np.testing.assert_allclose(b.reordered(["x", "z"]).mass, a, atol=1e-15)


class TestCondition:
    def test_product_joint_constant_rows(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.2, 0.8])
        j = JointPmf([Axis("x", 2), Axis("y", 2)], np.outer(p, q))
        k = j.condition(["x"])
        np.testing.assert_allclose(k.rows[0], q, atol=1e-15)
        np.testing.assert_allclose(k.rows[1], q, atol=1e-15)

    def test_correlated_pair_identity_kernel(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.5, 0.0], [0.0, 0.5]])
        k = j.condition(["x"])
        np.testing.assert_array_equal(k.rows, np.eye(2))

    def test_hand_bayes(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.4, 0.1], [0.1, 0.4]])
        k = j.condition(["x"])
        np.testing.assert_allclose(k.rows[0], [0.8, 0.2], atol=1e-15)
        np.testing.assert_allclose(k.rows[1], [0.2, 0.8], atol=1e-15)

    def test_zero_row_uniform_filled_and_flagged(self):
        j = JointPmf([Axis("x", 2), Axis("y", 2)], [[0.5, 0.5], [0.0, 0.0]])
        k = j.condition(["x"])
        assert k.filled_rows == ((1,),)
        np.testing.assert_array_equal(k.rows[1], [0.5, 0.5])

    def test_compose_with_input_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            j = random_joint(rng, (2, 3), ["x", "y"])
            k = j.condition(["x"])
            back = k.compose_with_input(j.marginalize(["x"]))
            np.testing.assert_allclose(
                back.reordered(["x", "y"]).mass, j.mass, atol=1e-14
            )

    def test_conditioning_on_everything_rejected(self):
        j = random_joint(np.random.default_rng(5), (2, 2), ["x", "y"])
        with pytest.raises(ValueError):
            j.condition(["x", "y"])


class TestStochasticKernel:
    def test_row_validation(self):
        with pytest.raises(ValueError):
            StochasticKernel([Axis("x", 2)], [Axis("y", 2)], [[0.5, 0.4], [0.5, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            StochasticKernel([Axis("x", 1)], [Axis("y", 2)], [[1.5, -0.5]])

    def test_nan_row(self):
        with pytest.raises(ValueError, match=r"row \(1,\) sums to .*nan"):
            StochasticKernel([Axis("x", 2)], [Axis("y", 2)], [[0.5, 0.5], [np.nan, 1.0]])


@st.composite
def row_pmfs(draw):
    """(array, row_axes): random shape, every row a Dirichlet pmf, some zeros."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    row_axes = draw(st.integers(0, len(shape) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.dirichlet(np.ones(math.prod(shape[row_axes:])), size=math.prod(shape[:row_axes]))
    rows = rows * (rng.random(rows.shape) < 0.7)
    # a row the mask emptied gets its mass back on one cell
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    rows /= rows.sum(axis=1, keepdims=True)
    return rows.reshape(shape), row_axes


class TestCheckRows:
    @PROPERTY
    @given(case=row_pmfs())
    def test_valid_rows_return_their_sums_bitwise(self, case):
        arr, row_axes = case
        rows = math.prod(arr.shape[:row_axes])
        sums = check_rows(arr, row_axes, "t", tol=1e-9)
        assert sums.tobytes() == arr.reshape(rows, -1).sum(axis=1).tobytes()

    @PROPERTY
    @given(
        case=row_pmfs(),
        bad=st.sampled_from(["nan", "+inf", "-inf", "negative", "off"]),
        tol=st.sampled_from([1e-12, 1e-9]),
        error=st.sampled_from([ValueError, RowSumError]),
        data=st.data(),
    )
    def test_one_bad_cell_is_refused_naming_its_row(self, case, bad, tol, error, data):
        arr, row_axes = case
        arr = arr.copy()
        cell = tuple(data.draw(st.integers(0, s - 1)) for s in arr.shape)
        row = cell[:row_axes]
        arr[cell] = {
            "nan": np.nan,
            "+inf": np.inf,
            "-inf": -np.inf,
            "negative": -0.25,
            "off": arr[cell] + 2 * tol,
        }[bad]
        with pytest.raises(error) as info:
            check_rows(arr, row_axes, "t", tol=tol, error=error)
        assert type(info.value) is error
        msg = str(info.value)
        name = f"row {row}" if row_axes else "it"
        if bad in ("-inf", "negative"):
            assert msg == f"t has a negative entry {arr[cell]} at cell {cell}"
        elif bad == "off":
            where = f" row {row}" if row_axes else ""
            assert msg.startswith(f"t{where} sums to 1.0000")
            assert msg.endswith(f", outside tolerance {tol}")
        else:
            total = "nan" if bad == "nan" else "inf"
            assert msg == f"t has a non-finite entry at cell {cell}, so {name} sums to {total}"

    @pytest.mark.parametrize("shape, row_axes", [((1 << 22,), 0), ((1 << 11, 1 << 11), 1), ((64, 64, 1024), 2)])
    def test_pass_path_builds_no_cell_sized_mask(self, shape, row_axes):
        # every row is uniform over a power of two cells, so it sums to 1 exactly;
        # a boolean mask over the cells alone would be an eighth of the array
        arr = np.full(shape, 1.0 / math.prod(shape[row_axes:]))
        tracemalloc.start()
        try:
            check_rows(arr, row_axes, "t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes // 8

    def test_rows_whose_sum_overflows_name_the_row(self):
        with pytest.raises(ValueError, match=r"^t row \(1,\) sums to inf, outside tolerance 1e-12$"):
            check_rows(np.array([[0.5, 0.5], [1e308, 1e308]]), 1, "t")

    def test_empty_array_is_refused(self):
        with pytest.raises(RowSumError, match="t must have at least one cell"):
            check_rows(np.zeros((2, 0)), 1, "t", error=RowSumError)


class TestIidExtension:
    def test_n1_is_base(self):
        p = FinitePmf([0.3, 0.7])
        j = iid_extension(p, 1)
        np.testing.assert_array_equal(j.mass, p.mass)

    def test_uniform_square(self):
        j = iid_extension(FinitePmf.uniform(2), 2)
        np.testing.assert_array_equal(j.mass.reshape(-1), np.full(4, 0.25))

    def test_hand_products(self):
        j = iid_extension(FinitePmf([0.3, 0.7]), 2)
        np.testing.assert_allclose(j.mass.reshape(-1), [0.09, 0.21, 0.21, 0.49], atol=1e-15)

    def test_marginals_recover_base(self):
        p = FinitePmf([0.2, 0.5, 0.3])
        j = iid_extension(p, 3)
        for name in j.axis_names:
            np.testing.assert_allclose(j.single(name).mass, p.mass, atol=1e-15)

    def test_budget(self):
        with pytest.raises(ResourceError):
            iid_extension(FinitePmf.uniform(2), 40, max_cells=10**6)


def test_aligned_masses_permutes_second():
    rng = np.random.default_rng(6)
    j = random_joint(rng, (2, 3), ["x", "y"])
    r = j.reordered(["y", "x"])
    a, b = aligned_masses(j, r)
    np.testing.assert_array_equal(a, b)
