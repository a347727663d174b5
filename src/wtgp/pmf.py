"""Finite-alphabet probability primitives.

Everything downstream (channel models, rate regions, block-code
enumeration) is built on three dense types:

* ``FinitePmf``     -- a distribution on {0, ..., k-1};
* ``JointPmf``      -- a distribution on a product of named axes, stored as
  a C-ordered numpy array so the flat index is the row-major multi-index;
* ``StochasticKernel`` -- a conditional distribution, one valid pmf row per
  input cell.

``check_rows`` is the one pmf rule for every probability array in the
package: laws, kernels, encoder tables and pmfs are valid row by row
when each row is nonnegative and sums to one within a tolerance
(``NORMALIZATION_TOL`` unless the caller names another).  Construction
applies it exactly; inputs outside tolerance are rejected, never
renormalized silently.  Conditioning on a zero-probability cell fills that
row with the uniform distribution and records the cell in
``filled_rows`` so callers can decide whether the fill matters.

Arrays held by these objects are marked read-only; instances are safe to
share across threads.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ResourceError, ShapeError

NORMALIZATION_TOL = 1e-12

# Cap on cells materialized by product constructions such as iid_extension.
DEFAULT_MAX_CELLS = 1 << 22


@dataclasses.dataclass(frozen=True)
class Axis:
    name: str
    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("axis name must be a non-empty string")
        if int(self.size) < 1:
            raise ValueError(f"axis {self.name!r} must have size >= 1")
        object.__setattr__(self, "size", int(self.size))


def _freeze(arr: np.ndarray) -> np.ndarray:
    """``arr`` as C-ordered float64, read-only; copied only if its layout needs it."""
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _as_readonly(arr) -> np.ndarray:
    """A read-only C-ordered float64 copy, so the caller's array stays its own."""
    return _freeze(np.array(arr, dtype=np.float64, order="C"))


def check_rows(
    arr: np.ndarray,
    row_axes: int,
    what: str,
    tol: float = NORMALIZATION_TOL,
    error: type[Exception] = ValueError,
) -> np.ndarray:
    """Row sums of ``arr``, refused with ``error`` unless each row is a pmf.

    The leading ``row_axes`` axes index the rows; 0 makes ``arr`` one pmf.
    A row passes when its entries are >= 0 and its sum is within ``tol``
    of 1.  Only ``min()`` and the row sums run over the cells: a NaN or
    infinite entry makes its row sum non-finite, and the bad cell is
    located only after a check has failed.  Returns the sums, shape
    ``(prod(arr.shape[:row_axes]),)``.
    """
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        raise error(f"{what} must have at least one cell")
    if arr.min() < 0.0:
        cell = tuple(int(i) for i in np.argwhere(arr < 0.0)[0])
        raise error(f"{what} has a negative entry {float(arr[cell])} at cell {cell}")
    lead = arr.shape[:row_axes]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = arr.reshape(math.prod(lead), -1).sum(axis=1)
    # written so that a NaN row sum fails too
    ok = np.abs(sums - 1.0) <= tol
    if not ok.all():
        # a non-finite row is named before a merely unnormalized one
        inf = ~np.isfinite(sums)
        i = int(np.flatnonzero(inf if inf.any() else ~ok)[0])
        row = tuple(int(v) for v in np.unravel_index(i, lead))
        total = float(sums[i])
        bad = ~np.isfinite(arr[row])
        if bad.any():
            cell = row + tuple(int(v) for v in np.argwhere(bad)[0])
            name = f"row {row}" if row_axes else "it"
            raise error(
                f"{what} has a non-finite entry at cell {cell}, so {name} sums to {total}"
            )
        where = f" row {row}" if row_axes else ""
        raise error(f"{what}{where} sums to {total}, outside tolerance {tol}")
    return sums


class FinitePmf:
    """Probability mass function on the alphabet {0, ..., k-1}."""

    __slots__ = ("mass",)

    def __init__(self, mass) -> None:
        arr = _as_readonly(np.asarray(mass, dtype=np.float64).reshape(-1))
        check_rows(arr, 0, "pmf")
        object.__setattr__(self, "mass", arr)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("FinitePmf is immutable")

    @property
    def alphabet_size(self) -> int:
        return int(self.mass.size)

    @staticmethod
    def uniform(size: int) -> "FinitePmf":
        return FinitePmf(np.full(int(size), 1.0 / int(size)))

    def __repr__(self) -> str:
        return f"FinitePmf({self.mass.tolist()})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinitePmf)
            and self.mass.shape == other.mass.shape
            and bool(np.array_equal(self.mass, other.mass))
        )

    def __hash__(self):
        return hash(self.mass.tobytes())


class JointPmf:
    """Joint distribution over named axes, dense row-major storage."""

    __slots__ = ("axes", "mass")

    def __init__(self, axes: Sequence[Axis], mass) -> None:
        self._store(axes, _as_readonly(mass))

    @classmethod
    def _adopt(cls, axes: Sequence[Axis], mass: np.ndarray) -> "JointPmf":
        """A pmf that takes ``mass`` as its storage instead of copying it.

        Only for arrays this package has just built and holds no other
        reference to: ``mass`` is validated like any input and marked
        read-only in place.
        """
        pmf = object.__new__(cls)
        pmf._store(axes, mass)
        return pmf

    def _store(self, axes: Sequence[Axis], mass: np.ndarray) -> None:
        axes = tuple(
            ax if isinstance(ax, Axis) else Axis(str(ax[0]), int(ax[1]))
            for ax in axes
        )
        names = [ax.name for ax in axes]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate axis names: {names}")
        arr = np.asarray(mass, dtype=np.float64)
        shape = tuple(ax.size for ax in axes)
        if arr.shape != shape:
            if arr.size == int(np.prod(shape)):
                arr = arr.reshape(shape)
            else:
                raise ShapeError(
                    f"mass shape {arr.shape} does not match axes {shape}"
                )
        arr = _freeze(arr)
        check_rows(arr, 0, "joint pmf")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "mass", arr)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("JointPmf is immutable")

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(ax.name for ax in self.axes)

    def axis_index(self, name: str) -> int:
        for i, ax in enumerate(self.axes):
            if ax.name == name:
                return i
        raise ShapeError(f"no axis named {name!r}; have {self.axis_names}")

    def axis_size(self, name: str) -> int:
        return self.axes[self.axis_index(name)].size

    def reordered(self, names: Sequence[str]) -> "JointPmf":
        names = tuple(names)
        if set(names) != set(self.axis_names) or len(names) != len(self.axes):
            raise ShapeError(
                f"reorder {names} is not a permutation of {self.axis_names}"
            )
        perm = [self.axis_index(n) for n in names]
        return JointPmf(
            [self.axes[i] for i in perm], np.transpose(self.mass, perm)
        )

    def marginalize(self, keep: Iterable[str]) -> "JointPmf":
        """Marginal over ``keep`` (a non-empty subset), original axis order."""
        keep = set(keep)
        unknown = keep - set(self.axis_names)
        if unknown:
            raise ShapeError(f"unknown axes {sorted(unknown)}")
        if not keep:
            raise ValueError("must keep at least one axis")
        drop = tuple(
            i for i, ax in enumerate(self.axes) if ax.name not in keep
        )
        kept_axes = [ax for ax in self.axes if ax.name in keep]
        # a fresh sum is adopted; with nothing dropped the read-only mass is shared
        return JointPmf._adopt(kept_axes, self.mass.sum(axis=drop) if drop else self.mass)

    def single(self, name: str) -> FinitePmf:
        """One-axis marginal as a FinitePmf."""
        return FinitePmf(self.marginalize([name]).mass)

    def condition(self, given: Iterable[str]) -> "StochasticKernel":
        """Conditional kernel P(rest | given).

        ``given`` must be a proper non-empty subset of the axes.  Rows with
        zero conditioning probability are uniform-filled and reported in
        the kernel's ``filled_rows``.
        """
        given = set(given)
        unknown = given - set(self.axis_names)
        if unknown:
            raise ShapeError(f"unknown axes {sorted(unknown)}")
        if not given or given == set(self.axis_names):
            raise ValueError("given must be a proper non-empty subset of axes")
        in_axes = tuple(ax for ax in self.axes if ax.name in given)
        out_axes = tuple(ax for ax in self.axes if ax.name not in given)
        perm = [self.axis_index(ax.name) for ax in in_axes + out_axes]
        arr = np.transpose(self.mass, perm)
        n_in = int(np.prod([ax.size for ax in in_axes]))
        n_out = int(np.prod([ax.size for ax in out_axes]))
        rows = arr.reshape(n_in, n_out).copy()
        sums = rows.sum(axis=1)
        zero = sums <= 0.0
        filled = []
        if zero.any():
            rows[zero] = 1.0 / n_out
            in_shape = tuple(ax.size for ax in in_axes)
            for flat in np.flatnonzero(zero):
                filled.append(tuple(int(v) for v in np.unravel_index(flat, in_shape)))
            sums = np.where(zero, 1.0, sums)
        rows /= sums[:, None]
        shape = tuple(ax.size for ax in in_axes) + tuple(ax.size for ax in out_axes)
        return StochasticKernel(in_axes, out_axes, rows.reshape(shape), tuple(filled))

    def __repr__(self) -> str:
        spec = ", ".join(f"{ax.name}:{ax.size}" for ax in self.axes)
        return f"JointPmf({spec})"


class StochasticKernel:
    """Conditional distribution: one pmf over output axes per input cell."""

    __slots__ = ("input_axes", "output_axes", "rows", "filled_rows")

    def __init__(
        self,
        input_axes: Sequence[Axis],
        output_axes: Sequence[Axis],
        rows,
        filled_rows: tuple = (),
    ) -> None:
        input_axes = tuple(
            ax if isinstance(ax, Axis) else Axis(str(ax[0]), int(ax[1]))
            for ax in input_axes
        )
        output_axes = tuple(
            ax if isinstance(ax, Axis) else Axis(str(ax[0]), int(ax[1]))
            for ax in output_axes
        )
        names = [ax.name for ax in input_axes + output_axes]
        if len(set(names)) != len(names):
            raise ShapeError(f"duplicate axis names: {names}")
        arr = np.asarray(rows, dtype=np.float64)
        shape = tuple(ax.size for ax in input_axes) + tuple(
            ax.size for ax in output_axes
        )
        if arr.shape != shape:
            if arr.size == int(np.prod(shape)):
                arr = arr.reshape(shape)
            else:
                raise ShapeError(f"rows shape {arr.shape} != {shape}")
        check_rows(arr, len(input_axes), "kernel")
        arr = _as_readonly(arr)
        object.__setattr__(self, "input_axes", input_axes)
        object.__setattr__(self, "output_axes", output_axes)
        object.__setattr__(self, "rows", arr)
        object.__setattr__(self, "filled_rows", tuple(tuple(t) for t in filled_rows))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("StochasticKernel is immutable")

    def compose_with_input(self, marginal: "JointPmf") -> "JointPmf":
        """Joint ``marginal(input) * kernel(output | input)``.

        ``marginal`` must carry exactly the kernel's input axes (any order).
        """
        inp = marginal.reordered([ax.name for ax in self.input_axes])
        joint = inp.mass.reshape(inp.mass.shape + (1,) * len(self.output_axes)) * self.rows
        return JointPmf(self.input_axes + self.output_axes, joint)

    def __repr__(self) -> str:
        i = ", ".join(f"{ax.name}:{ax.size}" for ax in self.input_axes)
        o = ", ".join(f"{ax.name}:{ax.size}" for ax in self.output_axes)
        return f"StochasticKernel({i} -> {o})"


def iid_extension(
    p: FinitePmf,
    n: int,
    prefix: str = "x",
    max_cells: int = DEFAULT_MAX_CELLS,
) -> JointPmf:
    """n-fold product measure of ``p`` on axes ``{prefix}1 .. {prefix}n``."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    k = p.alphabet_size
    cells = k**n
    if cells > max_cells:
        raise ResourceError(
            f"iid_extension needs {cells} cells, budget is {max_cells}"
        )
    out = p.mass
    for _ in range(n - 1):
        out = np.multiply.outer(out, p.mass)
    axes = [Axis(f"{prefix}{i + 1}", k) for i in range(n)]
    return JointPmf(axes, out)


def aligned_masses(p: JointPmf, q: JointPmf) -> tuple[np.ndarray, np.ndarray]:
    """Masses of ``p`` and ``q`` with q permuted to p's axis order."""
    if set(p.axis_names) != set(q.axis_names):
        raise ShapeError(
            f"axis sets differ: {p.axis_names} vs {q.axis_names}"
        )
    if q.axis_names != p.axis_names:
        q = q.reordered(p.axis_names)
    if p.mass.shape != q.mass.shape:
        raise ShapeError(
            f"axis sizes differ: {p.mass.shape} vs {q.mass.shape}"
        )
    return p.mass, q.mass
