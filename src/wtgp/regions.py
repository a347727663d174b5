"""Achievable-rate bounds, capacities, and region searches.

Six bound families are supported, named by structure and side:

* ``SD-WT`` / ``SD-GP``: semi-deterministic broadcast bounds
      R1 <= H(Y1 | Z)
      R2 <= I(U; Y2) - I(U; Z)
      R1 + R2 <= H(Y1 | Z) + I(U; Y2) - I(U; Y1, Z)
* ``PD-IR-WT`` / ``PD-IR-GP``: physically-degraded, informed receiver 1
      R1 <= I(X; Y1 | U, Z)
      R2 <= I(U; Y2) - I(U; Z)
* ``PD-IR-WT-COOP`` / ``PD-IR-GP-COOP``: the same with a cooperation link
  of capacity c12, which adds c12 to the R2 bound and caps the sum rate at
  I(X; Y1 | Z).

The formulas are evaluated on a single-letter joint over axes
(u, x, y1, y2, z).  The two sides differ only in how that joint is
assembled: p(u, x) * law(y1, y2, z | x) on the wiretap side versus
q(z) * q(u, x | z) * law(y1, y2 | x, z) on the GP side.

Every bound above, the secrecy objective I(U;Y1) - I(U;Z) and the
informed objective I(X;Y1|Z) live in one table of signed marginal-entropy
terms.  A term's marginal is the joint summed down to its axes; it is
linear in the flat auxiliary row, so a search compiles its terms once
into linear maps (``_Map``).  One entropy/sign kernel turns marginals
into values.  The searches and the grid oracle feed it their rows' mapped
marginals; ``rate_bounds_from_joint`` and ``eval_rate_bounds`` feed it a
joint summed down, so given the same numeric joint both sides run the
identical code path and their bounds agree bitwise; that equality is the
single-letter face of the analogy.  The support function likewise has one
vertex definition shared by the scalar maximum, the batched value and the
gradient's weights.

Searches maximize over the auxiliary distribution with multistart
exponentiated-gradient ascent (Dirichlet(1, ..., 1) restarts, a step-halving
line search scored around each row's last winning step, convergence when a
pass improves by less than ``tol``).  The
variable is one vector over a product of simplices: one p(u, x) block on
the wiretap side, one q(u, x | z) block per state on the GP side, so a
wiretap search is the one-block case of a GP search.  Each pass scales
the whole vector by 2^(step * gradient), normalized block by block.  The
gradient is exact: the maps' transposes take -log2 m back, each cell
weighed by its term's signs, and a support objective weighs its bounds by
the vertex piece the support value picks.
``_search`` runs every search: a capacity is one key, a frontier one key per
direction, and all keys' restarts go through one ascent in which each
row reads its own key's lambdas and stops on its own.
``brute_force_oracle`` enumerates a delta-grid over the same
domain and is the independent reference the searches are tested
against; a wiretap point is the one-block (|Z| = 1) case of the GP
product grid.  The ascent and the oracle score rows with one evaluator,
in chunks of rows whose marginals hold at most ``_CHUNK_CELLS`` cells.
Negative bound values are clamped to zero for reporting; raw values are
preserved on every ``RateBounds``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .channels import GpModel, WiretapModel, classify
from .errors import ClassificationError, ResourceError, ShapeError
from .pmf import Axis, JointPmf, StochasticKernel, check_rows

FAMILIES: dict[str, tuple[str, str]] = {
    "SD-WT": ("wiretap", "SD"),
    "SD-GP": ("gp", "SD"),
    "PD-IR-WT": ("wiretap", "PD-IR"),
    "PD-IR-GP": ("gp", "PD-IR"),
    "PD-IR-WT-COOP": ("wiretap", "PD-IR-COOP"),
    "PD-IR-GP-COOP": ("gp", "PD-IR-COOP"),
}

DEFAULT_GRID_BUDGET = 50_000_000
# the most cells one chunk's (rows, cells) marginals may hold in the searches
# and the oracle: measured, larger chunks raise the search's peak memory and
# make each chunk-sized temporary cost more to allocate than to fill
_CHUNK_CELLS = 1 << 15


def family_side(family: str) -> str:
    return _family(family)[0]


def _family(family: str) -> tuple[str, str]:
    try:
        return FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; expected one of {sorted(FAMILIES)}"
        ) from None


def default_u_size(model: WiretapModel | GpModel) -> int:
    """Default auxiliary cardinality: |X|+1 (wiretap), |X||Z|+1 (GP)."""
    if isinstance(model, WiretapModel):
        return model.x_size + 1
    return model.x_size * model.z_size + 1


# ---------------------------------------------------------------------------
# auxiliary distributions
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AuxiliaryDist:
    """Search variable of a bound family.

    Wiretap side: a JointPmf over axes (u, x), or over (x,) alone for
    informed-receiver capacities.  GP side: a StochasticKernel from z to
    (u, x) (or to (x,) alone).  ``allow_large_u`` bypasses the default
    cardinality cap |X|+1 / |X||Z|+1 (the auxiliary-reduction output may
    legitimately exceed it).
    """

    side: str
    dist: JointPmf | StochasticKernel
    allow_large_u: bool = False

    def __post_init__(self) -> None:
        if self.side not in ("wiretap", "gp"):
            raise ValueError(f"side must be 'wiretap' or 'gp', got {self.side!r}")
        if self.side == "wiretap":
            if not isinstance(self.dist, JointPmf):
                raise ShapeError("wiretap auxiliary must be a JointPmf")
            names = self.dist.axis_names
            if names not in (("u", "x"), ("x",)):
                raise ShapeError(f"wiretap auxiliary axes must be (u, x) or (x,), got {names}")
        else:
            if not isinstance(self.dist, StochasticKernel):
                raise ShapeError("gp auxiliary must be a StochasticKernel")
            in_names = tuple(ax.name for ax in self.dist.input_axes)
            out_names = tuple(ax.name for ax in self.dist.output_axes)
            if in_names != ("z",) or out_names not in (("u", "x"), ("x",)):
                raise ShapeError(
                    f"gp auxiliary must map (z,) to (u, x) or (x,), got {in_names} -> {out_names}"
                )

    @property
    def has_u(self) -> bool:
        if self.side == "wiretap":
            return self.dist.axis_names == ("u", "x")
        return tuple(ax.name for ax in self.dist.output_axes) == ("u", "x")

    @property
    def u_size(self) -> int:
        if not self.has_u:
            return 1
        if self.side == "wiretap":
            return self.dist.axis_size("u")
        return self.dist.output_axes[0].size

    @property
    def x_size(self) -> int:
        if self.side == "wiretap":
            return self.dist.axis_size("x")
        return self.dist.output_axes[-1].size


def aux_from_array(
    side: str,
    arr: np.ndarray,
    u_size: int,
    x_size: int,
    z_size: int = 1,
    allow_large_u: bool = False,
) -> AuxiliaryDist:
    """Wrap a raw search vector as an AuxiliaryDist."""
    if side == "wiretap":
        dist = JointPmf([Axis("u", u_size), Axis("x", x_size)], arr)
        return AuxiliaryDist("wiretap", dist, allow_large_u)
    rows = np.asarray(arr, dtype=np.float64).reshape(z_size, u_size, x_size)
    kern = StochasticKernel(
        [Axis("z", z_size)], [Axis("u", u_size), Axis("x", x_size)], rows
    )
    return AuxiliaryDist("gp", kern, allow_large_u)


def aux_to_dict(aux: AuxiliaryDist) -> dict:
    if aux.side == "wiretap":
        return {
            "side": "wiretap",
            "axes": list(aux.dist.axis_names),
            "mass": aux.dist.mass.tolist(),
            "allow_large_u": aux.allow_large_u,
        }
    return {
        "side": "gp",
        "input_axes": [ax.name for ax in aux.dist.input_axes],
        "output_axes": [ax.name for ax in aux.dist.output_axes],
        "rows": aux.dist.rows.tolist(),
        "allow_large_u": aux.allow_large_u,
    }


def aux_from_dict(doc: dict) -> AuxiliaryDist:
    if doc["side"] == "wiretap":
        mass = np.asarray(doc["mass"], dtype=np.float64)
        axes = [Axis(n, s) for n, s in zip(doc["axes"], mass.shape)]
        return AuxiliaryDist(
            "wiretap", JointPmf(axes, mass), bool(doc.get("allow_large_u", False))
        )
    rows = np.asarray(doc["rows"], dtype=np.float64)
    n_in = len(doc["input_axes"])
    in_axes = [Axis(n, s) for n, s in zip(doc["input_axes"], rows.shape[:n_in])]
    out_axes = [Axis(n, s) for n, s in zip(doc["output_axes"], rows.shape[n_in:])]
    return AuxiliaryDist(
        "gp",
        StochasticKernel(in_axes, out_axes, rows),
        bool(doc.get("allow_large_u", False)),
    )


# ---------------------------------------------------------------------------
# single-letter joints and the rate-expression table
# ---------------------------------------------------------------------------


_JOINT_AXES = ("u", "x", "y1", "y2", "z")


def _joint_batch(
    model: WiretapModel | GpModel, theta: np.ndarray, u_size: int
) -> np.ndarray:
    """(b, u, x, y1, y2, z) joints of a batch of flat auxiliary rows.

    Wiretap rows hold p(u, x); GP rows hold the kernel q(u, x | z), one
    (u, x) block per state.  An input-only variable is the |U| = 1 case.
    """
    if isinstance(model, WiretapModel):
        p = theta.reshape(theta.shape[0], u_size, model.x_size)
        return np.einsum("bux,xjkz->buxjkz", p, model.law)
    k = theta.reshape(theta.shape[0], model.z_size, u_size, model.x_size)
    return np.einsum("z,bzux,xzjk->buxjkz", model.state_dist.mass, k, model.law)


def _aux_row(model: WiretapModel | GpModel, aux: AuxiliaryDist) -> np.ndarray:
    """The auxiliary as a batch of one flat row, checked against the model."""
    side = "wiretap" if isinstance(model, WiretapModel) else "gp"
    if aux.side != side:
        raise ShapeError(f"{side} model needs a {side}-side auxiliary")
    if not aux.has_u:
        raise ShapeError("region evaluation needs a (u, x) auxiliary")
    if side == "wiretap":
        if aux.x_size != model.x_size:
            raise ShapeError(
                f"auxiliary x-size {aux.x_size} != model x-size {model.x_size}"
            )
        theta = aux.dist.mass
    else:
        if aux.x_size != model.x_size or aux.dist.input_axes[0].size != model.z_size:
            raise ShapeError("auxiliary alphabets do not match the model")
        theta = aux.dist.rows
    return theta.reshape(1, -1)


def single_letter_joint(model: WiretapModel | GpModel, aux: AuxiliaryDist) -> JointPmf:
    """Joint over (u, x, y1, y2, z) induced by the auxiliary and the law."""
    mass = _joint_batch(model, _aux_row(model, aux), aux.u_size)[0]
    return JointPmf([Axis(n, s) for n, s in zip(_JOINT_AXES, mass.shape)], mass)


# axis positions in a (b, u, x, y1, y2, z) batch
_U, _X, _Y1, _Y2, _Z = 1, 2, 3, 4, 5

# Every bound and objective as signed marginal entropies, summed left to
# right: the term (-1, (_U, _Z)) reads -H(U, Z).
_EXPRESSIONS: dict[str, tuple[tuple[int, tuple[int, ...]], ...]] = {
    "H(Y1|Z)": ((+1, (_Y1, _Z)), (-1, (_Z,))),
    "I(U;Y2)-I(U;Z)": (
        (+1, (_Y2,)), (-1, (_U, _Y2)), (-1, (_Z,)), (+1, (_U, _Z)),
    ),
    "H(Y1|Z)+I(U;Y2)-I(U;Y1,Z)": (
        (+1, (_Y2,)), (-1, (_U, _Y2)), (-1, (_Z,)), (+1, (_U, _Y1, _Z)),
    ),
    "I(X;Y1|U,Z)": (
        (+1, (_U, _X, _Z)), (+1, (_U, _Y1, _Z)),
        (-1, (_U, _X, _Y1, _Z)), (-1, (_U, _Z)),
    ),
    "I(X;Y1|Z)": (
        (+1, (_X, _Z)), (+1, (_Y1, _Z)), (-1, (_X, _Y1, _Z)), (-1, (_Z,)),
    ),
    "I(U;Y1)-I(U;Z)": (
        (+1, (_Y1,)), (-1, (_U, _Y1)), (-1, (_Z,)), (+1, (_U, _Z)),
    ),
}

# (R1, R2, R1 + R2) bounds of each structural kind; None is no constraint.
# The cooperative kind also adds c12 to its R2 bound.
_KIND_ROWS: dict[str, tuple[str, str, str | None]] = {
    "SD": ("H(Y1|Z)", "I(U;Y2)-I(U;Z)", "H(Y1|Z)+I(U;Y2)-I(U;Y1,Z)"),
    "PD-IR": ("I(X;Y1|U,Z)", "I(U;Y2)-I(U;Z)", None),
    "PD-IR-COOP": ("I(X;Y1|U,Z)", "I(U;Y2)-I(U;Z)", "I(X;Y1|Z)"),
}

# capacity objectives: secrecy over (u, x), informed over x alone (|U| = 1)
_SECRECY = "I(U;Y1)-I(U;Z)"
_INFORMED = "I(X;Y1|Z)"


def _summed_down(j: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """The (b, ...) marginal on the axes ``keep`` of a (b, u, x, y1, y2, z)
    joint batch: the one definition of a term's marginal."""
    drop = tuple(i for i in range(1, j.ndim) if i not in keep)
    return j.sum(axis=drop) if drop else j


def _stacked(j: np.ndarray, keeps) -> np.ndarray:
    """(cells, b) marginals of a joint batch on each of ``keeps``, stacked."""
    parts = [_summed_down(j, k).reshape(len(j), -1).T for k in keeps]
    return np.concatenate(parts or [np.zeros((0, len(j)))])


class _Terms(NamedTuple):
    """The distinct entropy terms of some expressions, their cells stacked
    (the terms that keep U, then the rest); a term's entropy does not
    depend on the order of its own cells."""

    names: tuple[str | None, ...]
    keeps: tuple[tuple[int, ...], ...]  # the distinct terms, in layout order
    starts: np.ndarray  # the first cell of each term
    signs: np.ndarray  # (names, cells): each cell's term's sign per expression


def _terms(names: Sequence[str | None], shape: tuple[int, ...]) -> _Terms:
    """The named expressions' terms on joints of (u, x, y1, y2, z) ``shape``."""
    used = dict.fromkeys(k for name in names if name for _, k in _EXPRESSIONS[name])
    keeps = tuple(k for k in used if _U in k) + tuple(k for k in used if _U not in k)
    widths = [math.prod(shape[i - 1] for i in keep) for keep in keeps]
    signs = np.zeros((len(names), len(keeps)))
    for row, name in zip(signs, names):
        for sign, keep in _EXPRESSIONS[name] if name else ():
            row[keeps.index(keep)] += sign
    starts = np.cumsum([0] + widths)[:-1]
    return _Terms(tuple(names), keeps, starts, np.repeat(signs, widths, axis=1))


def _blocks(model: WiretapModel | GpModel) -> int:
    """Simplex blocks of a flat row: one per state on the GP side."""
    return model.z_size if isinstance(model, GpModel) else 1


class _Map(NamedTuple):
    """A search's terms as linear maps of its flat (z, u, x) rows: the
    marginals of the identity (z, x) rows' joints at |U| = 1.  A term that
    keeps U maps each u block alone (``kept``), one that drops U the whole
    row (``dropped``, repeated over u), so neither grows faster than |U|.
    ``_marginals`` applies them and ``_adjoint`` their transposes."""

    terms: _Terms
    kept: np.ndarray  # (cells per u, z * x)
    dropped: np.ndarray  # (cells, total)

    @property
    def chunk(self) -> int:
        """Rows whose (cells, rows) marginals hold at most ``_CHUNK_CELLS`` cells."""
        return max(1, _CHUNK_CELLS // self.terms.signs.shape[1])


def _term_map(model: WiretapModel | GpModel, u_size: int, objective: str) -> _Map:
    """The map of ``objective`` (a structural kind's three bounds or one
    capacity expression) on flat (z, u, x) rows of ``u_size``."""
    shape = (u_size, model.x_size, model.y1_size, model.y2_size, model.z_size)
    terms = _terms(_KIND_ROWS.get(objective, (objective,)), shape)
    blocks, x = _blocks(model), model.x_size
    j = _joint_batch(model, np.eye(blocks * x), 1)
    kept = _stacked(j, [k for k in terms.keeps if _U in k])
    dropped = _stacked(j, [k for k in terms.keeps if _U not in k]).reshape(-1, blocks, 1, x)
    dropped = np.broadcast_to(dropped, (len(dropped), blocks, u_size, x))
    return _Map(terms, kept, dropped.reshape(len(dropped), blocks * u_size * x))


def _marginals(model: WiretapModel | GpModel, theta: np.ndarray, a: _Map) -> np.ndarray:
    """(cells, rows) marginals of flat rows through the map ``a``: the u
    blocks of (z, x) cells of the rows, u-major, by ``a.kept`` (a term that
    keeps U has its cells as (rest, u), u fastest); the rows by
    ``a.dropped``."""
    (rows, total), (kept, k) = theta.shape, a.kept.shape
    u = total // k
    m = np.empty((kept * u + len(a.dropped), rows))
    t = theta.reshape(rows, _blocks(model), u, -1).transpose(2, 0, 1, 3).reshape(u * rows, k)
    np.matmul(a.kept, t.T, out=m[: kept * u].reshape(kept, u * rows))
    np.matmul(a.dropped, theta.T, out=m[kept * u :])
    return m


def _adjoint(model: WiretapModel | GpModel, g: np.ndarray, a: _Map) -> np.ndarray:
    """(rows, total): the transpose of ``_marginals`` applied to (cells,
    rows) values ``g``."""
    (kept, k), rows = a.kept.shape, g.shape[1]
    u = a.dropped.shape[1] // k
    out = g[: kept * u].reshape(kept, u * rows).T @ a.kept
    out = out.reshape(u, rows, _blocks(model), -1).transpose(1, 2, 0, 3).reshape(rows, -1)
    out += g[kept * u :].T @ a.dropped
    return out


def _log2(m: np.ndarray) -> np.ndarray:
    """log2 m as a new array, empty cells taking log2(1) = 0 (0 log 0 = 0),
    computed in place: a fresh chunk-sized temporary costs more than that."""
    out = np.where(m > 0.0, m, 1.0)
    return np.log2(out, out=out)


def _entropies(m: np.ndarray, logs: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(terms, rows) entropies (bits) of (cells, rows) stacked marginals,
    given their ``_log2``.

    Each term's cells are summed in one fixed order (``np.add.reduceat``,
    not a BLAS product), so the sums do not depend on the BLAS kernel.
    """
    return -np.add.reduceat(m * logs, starts)


def _evaluate(m: np.ndarray, logs: np.ndarray, terms: _Terms) -> list[np.ndarray | None]:
    """Per-row values of ``terms``' expressions at (cells, rows) marginals
    laid out by ``terms``, with their ``_log2`` ``logs``: the one
    entropy/sign kernel.  Each expression sums its signed term entropies
    left to right; a None name gives None."""
    h = _entropies(m, logs, terms.starts)
    out = []
    for name in terms.names:
        acc = None
        for sign, keep in _EXPRESSIONS[name] if name else ():
            v = sign * h[terms.keeps.index(keep)]
            acc = v if acc is None else acc + v
        out.append(acc)
    return out


def _rates(kind: str, values: list, coop: float | None):
    """Raw (r1, r2, r_sum) from a kind's three values; r_sum is None without
    a sum bound."""
    r1, r2, rs = values
    if kind == "PD-IR-COOP":
        r2 = r2 + float(coop)
    return r1, r2, rs


@dataclasses.dataclass(frozen=True)
class RateBounds:
    """Clamped bound values with the raw (pre-clamp) values preserved.

    ``r_sum`` is None when the family places no sum-rate constraint.
    """

    family: str
    r1: float
    r2: float
    r_sum: float | None
    raw_r1: float
    raw_r2: float
    raw_sum: float | None


def rate_bounds_from_joint(
    family: str, joint: JointPmf, coop_capacity: float | None = None
) -> RateBounds:
    """Evaluate a family's bound formulas on a prebuilt (u,x,y1,y2,z) joint.

    The joint runs through the batched evaluator as a batch of one.  Only
    the structural kind of ``family`` affects the arithmetic; the
    wiretap/GP side is a label.  Two families of the same kind therefore
    return bitwise-identical numbers on the same joint.
    """
    _, kind = _family(family)
    if set(joint.axis_names) != set(_JOINT_AXES):
        raise ShapeError(f"joint axes {joint.axis_names} must be {sorted(_JOINT_AXES)}")
    if kind == "PD-IR-COOP" and coop_capacity is None:
        raise ValueError("cooperative family needs coop_capacity")
    perm = [joint.axis_index(n) for n in _JOINT_AXES]
    j = np.ascontiguousarray(joint.mass.transpose(perm))[None]
    return _joint_bounds(family, j, coop_capacity)


def _joint_bounds(family: str, j: np.ndarray, coop: float | None) -> RateBounds:
    """RateBounds of a (1, u, x, y1, y2, z) joint batch: its summed-down
    marginals through the entropy/sign kernel."""
    kind = _family(family)[1]
    terms = _terms(_KIND_ROWS[kind], j.shape[1:])
    m = _stacked(j, terms.keeps)
    values = _rates(kind, _evaluate(m, _log2(m), terms), coop)
    raw = [None if v is None else float(v[0]) for v in values]
    return RateBounds(family, *[None if v is None else max(v, 0.0) for v in raw], *raw)


def _check_family_model(family: str, model: WiretapModel | GpModel) -> None:
    side, kind = _family(family)
    if side == "wiretap" and not isinstance(model, WiretapModel):
        raise ClassificationError(f"family {family} needs a wiretap model")
    if side == "gp" and not isinstance(model, GpModel):
        raise ClassificationError(f"family {family} needs a gp model")
    flags = classify(model)
    if kind == "SD":
        if not flags.semi_deterministic:
            raise ClassificationError(
                f"family {family} needs a semi-deterministic model"
            )
        return
    if not flags.physically_degraded:
        raise ClassificationError(f"family {family} needs a physically-degraded model")
    if not model.informed_receiver:
        raise ClassificationError(f"family {family} needs informed_receiver set")
    if kind == "PD-IR-COOP" and model.coop_capacity is None:
        raise ClassificationError(f"family {family} needs coop_capacity on the model")


def eval_rate_bounds(
    family: str, aux: AuxiliaryDist, model: WiretapModel | GpModel
) -> RateBounds:
    """Bound values of ``family`` at auxiliary ``aux`` on ``model``."""
    _check_family_model(family, model)
    cap = default_u_size(model)
    if aux.has_u and aux.u_size > cap and not aux.allow_large_u:
        raise ValueError(
            f"auxiliary cardinality {aux.u_size} exceeds the default cap {cap}; "
            "set allow_large_u to override"
        )
    j = _joint_batch(model, _aux_row(model, aux), aux.u_size)
    return _joint_bounds(family, j, model.coop_capacity)


# ---------------------------------------------------------------------------
# support function
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SupportPoint:
    value: float
    r1: float
    r2: float


def _support_vertices(r1, r2, rs, lo=np.minimum, hi=np.maximum, zero=0.0):
    """The two greedy vertices of {0<=R1<=r1, 0<=R2<=r2, R1+R2<=rs}.

    Filling R1 first, or R2 first, gives the two vertices that dominate
    every other one componentwise, so a nonnegative direction attains
    its support maximum (and its lexicographic tie-break) at one of
    them.  ``r1``, ``r2`` and ``rs`` are clamped bounds, floats or arrays;
    ``rs`` is inf without a sum constraint.  ``lo``, ``hi`` and ``zero``
    stand in for the minimum, the maximum and 0 (see ``_support_weights``).
    """
    r1_first = (lo(r1, rs), lo(r2, hi(rs - r1, zero)))
    r2_first = (lo(r1, hi(rs - r2, zero)), lo(r2, rs))
    return r1_first, r2_first


def support_maximum(bounds: RateBounds, lam1: float, lam2: float) -> SupportPoint:
    """max lam . (R1, R2) over {0<=R1<=r1, 0<=R2<=r2, R1+R2<=r_sum}.

    Ties are broken toward the lexicographically larger (R1, R2).
    """
    lam1 = float(lam1)
    lam2 = float(lam2)
    if lam1 < 0.0 or lam2 < 0.0 or (lam1 == 0.0 and lam2 == 0.0):
        raise ValueError("direction must be nonnegative and nonzero")
    rs = math.inf if bounds.r_sum is None else bounds.r_sum
    value, r1, r2 = max(
        (lam1 * a + lam2 * b, a, b)
        for a, b in _support_vertices(bounds.r1, bounds.r2, rs)
    )
    return SupportPoint(value=float(value), r1=float(r1), r2=float(r2))


def _batch_support(
    r1, r2, rs, lam1, lam2, lo=np.minimum, hi=np.maximum, zero=0.0, inf=math.inf
) -> np.ndarray:
    """Support value per row of raw batched bounds (clamped here)."""
    r1 = hi(r1, zero)
    r2 = hi(r2, zero)
    rs = inf if rs is None else hi(rs, zero)
    (a1, b1), (a2, b2) = _support_vertices(r1, r2, rs, lo, hi, zero)
    return hi(lam1 * a1 + lam2 * b1, lam1 * a2 + lam2 * b2)


def _support_weights(r1, r2, rs, lam1, lam2) -> np.ndarray:
    """(3, rows) weights of the raw (r1, r2, r_sum) in the support value.

    The gradient of the vertex piece ``_batch_support`` picks: each bound
    runs through it as a stack of its value and its coefficients on
    (r1, r2, r_sum), every minimum and maximum keeps the whole stack of the
    argument it picks (the first on a tie), and the stack comes out as the
    value and the weights of its piece.  A clamped bound picks 0, whose
    coefficients are 0.
    """

    def bound(v, k):  # the value, then its coefficients on (r1, r2, r_sum)
        return np.stack([v] + [np.full_like(v, float(i == k)) for i in range(3)])

    def lo(a, b):
        return np.where(a[0] <= b[0], a, b)

    def hi(a, b):
        return np.where(a[0] >= b[0], a, b)

    zero, inf = bound(np.zeros_like(r1), None), bound(np.full_like(r1, np.inf), None)
    rs = None if rs is None else bound(rs, 2)
    value = _batch_support(bound(r1, 0), bound(r2, 1), rs, lam1, lam2, lo, hi, zero, inf)
    return value[1:]


# ---------------------------------------------------------------------------
# multiplicative ascent over a product of simplices
# ---------------------------------------------------------------------------


def _normalize_blocks(theta: np.ndarray, row: int) -> np.ndarray:
    """Each ``row``-wide block of each row divided by its sum."""
    blocks = theta.reshape(len(theta), -1, row)
    return (blocks / blocks.sum(axis=2, keepdims=True)).reshape(theta.shape)


def _mirror_candidates(base: np.ndarray, grad: np.ndarray, steps: np.ndarray, row: int):
    """(n, k, total) candidates base * 2^(step * (grad - m)), block-normalized.

    ``steps`` is (k,) steps for every row or (n, k) steps per row.  m is
    each block's largest gradient over its positive entries and exponents
    are clipped at 0, so that entry keeps its mass (no block sums to 0).
    """
    b = base.reshape(len(base), 1, -1, row)
    g = grad.reshape(b.shape)
    m = np.where(b > 0.0, g, -np.inf).max(axis=3, keepdims=True)
    cand = b * np.exp2(np.minimum(steps[..., None, None] * (g - m), 0.0))
    return _normalize_blocks(cand.reshape(-1, base.shape[1]), row).reshape(cand.shape[:2] + (-1,))


# first step (exponent per bit of gradient) and halvings per pass of _ascend
_STEP0 = 256.0
_LADDER = 30
# rungs a row scores around its last winning rung.  Measured at search
# settings, a winner moves at most 3 rungs from pass to pass, so 7 rungs
# centred on it hold it; 5 put it on an inner edge, a full re-score, on
# 184 of 200 passes of the near-zero GP capacity.
_WINDOW = 7


@dataclasses.dataclass(frozen=True)
class SearchParams:
    """Knobs of the multistart ascent (defaults per the search contract)."""

    restarts: int = 32
    capacity_restarts: int = 64
    directions: int = 64
    tol: float = 1e-9
    max_passes: int = 400
    seed: int = 0
    u_size: int | None = None

    def __post_init__(self) -> None:
        # a search with no restart or pass has no winner to report, and a
        # NaN tol would stop every restart after one pass as converged
        for name in ("restarts", "capacity_restarts", "max_passes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.u_size is not None and self.u_size < 1:
            raise ValueError(f"u_size must be None or at least 1, got {self.u_size}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


def _ascend(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray],
    row: int,
    starts: np.ndarray,
    keys: np.ndarray,
    params: SearchParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize ``f`` over a product of ``row``-wide simplices from each start row.

    Each pass takes one multiplicative step over the whole vector: one
    exact gradient g (bits) from ``grad``, then the best rung of a
    step-halving ladder of candidates theta * 2^(step * g), normalized
    block by block; a row keeps its best candidate and the value ``f``
    gave it.  A row scores the whole ladder on its first pass, then the
    ``_WINDOW`` rungs centred on its last winning rung (shifted to fit the
    ladder), and the whole ladder again in the same pass when (a) its
    window's winner sits on an edge of the window that is not an end of
    the ladder, or (b) its window's best improves it by at most ``tol``.
    So a row stops only when the whole ladder fails to improve it by more
    than ``tol``, and a pass makes at most two ``f`` calls.  Returns
    (values, thetas, active mask): a row still active used up
    ``max_passes`` while improving.  ``f(theta, keys)`` must accept a
    (B, total) array (rows need not be normalized: it normalizes per
    block) and the (B,) keys of its rows, and return (B,) values;
    ``grad(theta, keys)`` returns the (B, total) gradient of ``f``'s
    objective at rows it is given block-normalized, as every start and
    candidate is, up to a constant per block, which the step ignores.  Every
    row moves by its own values alone, with no shared step or stopping
    rule.
    """
    theta = starts.astype(np.float64).copy()
    n, total = theta.shape
    vals = f(theta, keys)
    active = np.ones(n, dtype=bool)
    last = np.zeros(n, dtype=np.int64)  # each row's last winning rung
    steps = _STEP0 * 0.5 ** np.arange(_LADDER)

    def best_rungs(base, g, keys, rungs):
        """Each row's best candidate at its (rows, k) ascending ``rungs``, the
        first on a tie: the candidate, its value and its rung."""
        cand = _mirror_candidates(base, g, steps[rungs], row)
        fv = f(cand.reshape(-1, total), np.repeat(keys, rungs.shape[1])).reshape(len(base), -1)
        k, rows = fv.argmax(axis=1), np.arange(len(base))
        return cand[rows, k], fv[rows, k], rungs[rows, k]

    ladder = np.broadcast_to(np.arange(_LADDER), (n, _LADDER))
    passes = 0
    while active.any() and passes < params.max_passes:
        passes += 1
        idx = np.flatnonzero(active)
        base, g, now = theta[idx], grad(theta[idx], keys[idx]), vals[idx]
        if passes == 1 or _WINDOW == _LADDER:  # the whole ladder, one call
            top, topv, won = best_rungs(base, g, keys[idx], ladder[idx])
        else:  # every active row has won before: its window, then maybe the ladder
            lo = np.clip(last[idx] - _WINDOW // 2, 0, _LADDER - _WINDOW)
            hi = lo + _WINDOW - 1
            top, topv, won = best_rungs(base, g, keys[idx], lo[:, None] + np.arange(_WINDOW))
            gain = np.where(topv > now + 1e-15, topv - now, 0.0)
            edge = ((won == lo) & (lo > 0)) | ((won == hi) & (hi < _LADDER - 1))
            j = np.flatnonzero(edge | (gain <= params.tol))
            if len(j):
                top[j], topv[j], won[j] = best_rungs(base[j], g[j], keys[idx[j]], ladder[j])
        gain = np.where(topv > now + 1e-15, topv - now, 0.0)
        better = gain > 0.0
        upd = idx[better]
        theta[upd], vals[upd], last[upd] = top[better], topv[better], won[better]
        active[idx] = gain > params.tol
    return vals, theta, active


def _dirichlet_starts(
    seed: int, key: int, restarts: int, row: int, n_blocks: int
) -> np.ndarray:
    """Dirichlet(1, ..., 1) starts, block after block, from ``SeedSequence(seed, (key,))``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    return np.hstack([rng.dirichlet(np.ones(row), size=restarts) for _ in range(n_blocks)])


def _score(
    model: WiretapModel | GpModel,
    objective: str,
    theta: np.ndarray,
    lam: tuple[np.ndarray, np.ndarray] | None,
    term_map: _Map,
) -> np.ndarray:
    """(rows, K) values of ``objective`` on raw (not block-normalized) rows.

    The one evaluator of the searches and the oracle: per chunk of
    ``term_map.chunk`` rows, the marginals through ``term_map`` (which a
    search or the oracle builds once) and one ``_evaluate``.  A capacity
    expression gives K = 1; a structural kind gives support values at
    ``lam = (lam1, lam2)``, arrays that broadcast against a column of rows:
    (K,) for K directions per row, (rows, 1) for one direction per row.
    """
    step = term_map.chunk
    parts = []
    for i in range(0, len(theta), step):
        m = _marginals(model, theta[i : i + step], term_map)
        parts.append(_evaluate(m, _log2(m), term_map.terms))
    vals = [None if v[0] is None else np.concatenate(v)[:, None] for v in zip(*parts)]
    if objective in _KIND_ROWS:
        return _batch_support(*_rates(objective, vals, model.coop_capacity), *lam)
    return vals[0]


def _gradient(
    model: WiretapModel | GpModel,
    objective: str,
    theta: np.ndarray,
    lam: tuple[np.ndarray, np.ndarray] | None,
    term_map: _Map,
) -> np.ndarray:
    """(rows, total) gradient (bits) of ``_score``'s values at raw rows.

    Entropy term H(A theta) has gradient A^T (-log2 m - 1/ln 2) with m =
    A theta, empty cells taking 0.  The 1/ln 2 parts cancel: A^T 1 is the
    same vector for every term (1 on the wiretap side, q(z) on the GP
    side) and the signs of every expression sum to 0, so only -log2 m is
    mapped back, by ``_adjoint``.  Each cell's -log2 m is weighed by its
    term's signs in the expressions, summed with per-row weights: a
    capacity expression weighs 1; a structural kind weighs its (r1, r2,
    r_sum) by ``_support_weights`` at ``lam``, (rows, 1) arrays of one
    direction per row.  Chunked as ``_score``.
    """
    terms, step, out = term_map.terms, term_map.chunk, []
    for i in range(0, len(theta), step):
        m = _marginals(model, theta[i : i + step], term_map)
        logs = _log2(m)
        coef = terms.signs[0][:, None]
        if objective in _KIND_ROWS:
            r = _rates(objective, _evaluate(m, logs, terms), model.coop_capacity)
            w = _support_weights(*r, *(v[i : i + step, 0] for v in lam))
            coef = sum(s[:, None] * c for c, s in zip(w, terms.signs))
        logs *= -coef
        out.append(_adjoint(model, logs, term_map))
    return np.concatenate(out)


class _Winner(NamedTuple):
    value: float
    theta: np.ndarray
    converged: bool
    exhausted: bool  # some restart of the key used up max_passes


def _search(
    model: WiretapModel | GpModel,
    u_size: int,
    objective: str,
    restarts: int,
    params: SearchParams,
    directions: Sequence[tuple[float, float]] | None = None,
) -> list[_Winner]:
    """Best of ``restarts`` ascents per key, all keys in one ``_ascend`` call.

    Key k is direction k of ``directions``, or the one key 0 of a capacity
    expression.  Its starts use spawn key (k,) and are stacked in key
    order; each row's objective reads its own key's lambdas.  The variable
    is one p(u, x) block (wiretap) or one q(u, x | z) block per state (GP).
    """
    row, n_blocks = u_size * model.x_size, _blocks(model)
    lam = None if directions is None else np.asarray(directions, dtype=np.float64)
    n_keys = 1 if lam is None else len(lam)

    term_map = _term_map(model, u_size, objective)

    def per_row(keys: np.ndarray):
        return None if lam is None else (lam[keys, :1], lam[keys, 1:])

    def f(theta: np.ndarray, keys: np.ndarray) -> np.ndarray:
        theta = _normalize_blocks(theta, row)
        return _score(model, objective, theta, per_row(keys), term_map)[:, 0]

    def grad(theta: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return _gradient(model, objective, theta, per_row(keys), term_map)

    starts = [_dirichlet_starts(params.seed, k, restarts, row, n_blocks) for k in range(n_keys)]
    keys = np.repeat(np.arange(n_keys), restarts)
    vals, thetas, active = _ascend(f, grad, row, np.concatenate(starts), keys, params)
    winners = []
    for lo in range(0, len(vals), restarts):  # the rows of one key
        best = lo + int(np.argmax(vals[lo : lo + restarts]))
        exhausted = bool(active[lo : lo + restarts].any())
        winners.append(_Winner(float(vals[best]), thetas[best], not active[best], exhausted))
    return winners


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CapacityResult:
    value: float
    raw_value: float
    achiever: AuxiliaryDist
    converged: bool
    metadata: dict


def _capacity_search(
    model: WiretapModel | GpModel, params: SearchParams
) -> CapacityResult:
    informed = model.informed_receiver
    side = "wiretap" if isinstance(model, WiretapModel) else "gp"
    u_size = 1 if informed else (params.u_size or default_u_size(model))
    objective = _INFORMED if informed else _SECRECY
    (win,) = _search(model, u_size, objective, params.capacity_restarts, params)
    if informed:
        aux = _input_aux(side, win.theta, model)
    else:
        aux = aux_from_array(side, win.theta, u_size, model.x_size, z_size=_blocks(model))
    return CapacityResult(
        value=max(win.value, 0.0),
        raw_value=win.value,
        achiever=aux,
        converged=win.converged,
        metadata={
            "side": side,
            "informed": informed,
            "u_size": None if informed else u_size,
            "restarts": params.capacity_restarts,
            "tol": params.tol,
            "seed": params.seed,
            "budget_exhausted": win.exhausted,
        },
    )


def _input_aux(side: str, theta: np.ndarray, model) -> AuxiliaryDist:
    if side == "wiretap":
        return AuxiliaryDist("wiretap", JointPmf([Axis("x", model.x_size)], theta))
    rows = theta.reshape(model.z_size, model.x_size)
    return AuxiliaryDist(
        "gp",
        StochasticKernel([Axis("z", model.z_size)], [Axis("x", model.x_size)], rows),
    )


def wt_capacity(model: WiretapModel, params: SearchParams | None = None) -> CapacityResult:
    """Best found secrecy rate max I(U;Y1) - I(U;Z) (a certified lower estimate).

    With ``informed_receiver`` the informed formula max_{p_X} I(X;Y1|Z) is
    searched instead.  Point-to-point models only (singleton y2).
    """
    if not isinstance(model, WiretapModel):
        raise ShapeError("wt_capacity needs a WiretapModel")
    if not model.point_to_point:
        raise ClassificationError("wt_capacity is for point-to-point models (y2 size 1)")
    return _capacity_search(model, params or SearchParams())


def gp_capacity(model: GpModel, params: SearchParams | None = None) -> CapacityResult:
    """Best found rate max I(U;Y1) - I(U;Z) over q(u,x|z) (lower estimate).

    With ``informed_receiver`` the informed formula max_{q(x|z)} I(X;Y1|Z)
    is searched.  Point-to-point models only.
    """
    if not isinstance(model, GpModel):
        raise ShapeError("gp_capacity needs a GpModel")
    if not model.point_to_point:
        raise ClassificationError("gp_capacity is for point-to-point models (y2 size 1)")
    return _capacity_search(model, params or SearchParams())


def blahut_arimoto(
    channel: np.ndarray, tol: float = 1e-11, max_iter: int = 100_000
) -> float:
    """Capacity (bits) of a point-to-point channel matrix (x, y) rows.

    Independent oracle for the searches; standard alternating updates with
    the max_x D_x / sum_x r_x D_x bracket as the stopping rule.
    """
    w = np.asarray(channel, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError("channel matrix must be 2-d (x, y)")
    check_rows(w, 1, "channel rows must be pmfs: channel matrix", tol=1e-9)
    nx = w.shape[0]
    r = np.full(nx, 1.0 / nx)
    mask = w > 0.0
    logw = np.zeros_like(w)
    logw[mask] = np.log2(w[mask])
    for _ in range(max_iter):
        q = r @ w
        ratio = np.zeros_like(w)
        ratio[mask] = logw[mask] - np.log2(q[np.where(mask)[1]])
        d = (w * ratio).sum(axis=1)
        low = float(r @ d)
        high = float(d.max())
        if high - low < tol:
            return low
        r = r * np.exp2(d)
        r /= r.sum()
    raise ResourceError(f"blahut_arimoto did not bracket within {max_iter} iterations")


# ---------------------------------------------------------------------------
# region frontier
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SupportSample:
    lam1: float
    lam2: float
    value: float
    r1: float
    r2: float
    achiever: AuxiliaryDist
    converged: bool


@dataclasses.dataclass(frozen=True)
class BoundaryPoint:
    r1: float
    r2: float
    sample_index: int


@dataclasses.dataclass(frozen=True)
class RateRegion:
    family: str
    supports: tuple[SupportSample, ...]
    boundary: tuple[BoundaryPoint, ...]
    metadata: dict


def sweep_directions(count: int) -> list[tuple[float, float]]:
    """``count`` unit directions covering the closed first quadrant."""
    if count < 2:
        raise ValueError("need at least 2 directions")
    thetas = np.linspace(0.0, math.pi / 2.0, count)
    return [(float(math.cos(t)), float(math.sin(t))) for t in thetas]


def _pareto(points: list[tuple[float, float, int]]) -> list[tuple[float, float, int]]:
    """Non-dominated subset, sorted by r1 ascending / r2 descending."""
    pts = sorted(set(points), key=lambda p: (-p[0], -p[1], p[2]))
    kept: list[tuple[float, float, int]] = []
    best_r2 = -math.inf
    for r1, r2, i in pts:
        if r2 > best_r2 + 1e-15:
            kept.append((r1, r2, i))
            best_r2 = r2
    kept.reverse()
    return kept


def region_frontier(
    family: str,
    model: WiretapModel | GpModel,
    params: SearchParams | None = None,
    directions: Sequence[tuple[float, float]] | None = None,
) -> RateRegion:
    """Trace the family's frontier by maximizing the support function.

    Each direction runs ``params.restarts`` Dirichlet restarts of the
    multiplicative ascent, all directions in one ascent call stacked by
    (direction index, restart index).  A restart reads its own direction's
    lambdas and stops on its own, so a direction's sample depends only on
    its place in ``directions``, not on the other directions swept with
    it.  The reported value and vertex for
    each direction are recomputed through the normative scalar path from
    the winning auxiliary, so every support sample and boundary point is
    reproducible from its stored achiever.

    ``metadata["unconverged_directions"]`` counts the directions on which
    any restart ran out of ``max_passes``, so ``budget_exhausted`` holds
    exactly when it is positive.  A sample's ``converged`` flag describes
    its winning restart only.
    """
    params = params or SearchParams()
    _check_family_model(family, model)
    side, kind = _family(family)
    u_size = params.u_size or default_u_size(model)
    if directions is None:
        directions = sweep_directions(params.directions)
    # an empty sweep has no key to search
    winners = (
        _search(model, u_size, kind, params.restarts, params, directions) if directions else []
    )
    z_size = _blocks(model)
    samples: list[SupportSample] = []
    for (lam1, lam2), win in zip(directions, winners):
        aux = aux_from_array(side, win.theta, u_size, model.x_size, z_size=z_size)
        sp = support_maximum(eval_rate_bounds(family, aux, model), lam1, lam2)
        samples.append(SupportSample(lam1, lam2, sp.value, sp.r1, sp.r2, aux, win.converged))
    unconverged = sum(win.exhausted for win in winners)
    boundary = tuple(
        BoundaryPoint(r1=p[0], r2=p[1], sample_index=p[2])
        for p in _pareto([(s.r1, s.r2, i) for i, s in enumerate(samples)])
    )
    meta = {
        "family": family,
        "directions": len(directions),
        "restarts": params.restarts,
        "tol": params.tol,
        "seed": params.seed,
        "u_size": u_size,
        "budget_exhausted": unconverged > 0,
        "unconverged_directions": unconverged,
    }
    return RateRegion(
        family=family, supports=tuple(samples), boundary=boundary, metadata=meta
    )


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int, cache: dict) -> np.ndarray:
    key = (total, parts)
    if key in cache:
        return cache[key]
    if parts == 1:
        out = np.array([[total]], dtype=np.int16)
    else:
        blocks = []
        for first in range(total + 1):
            rest = _compositions(total - first, parts - 1, cache)
            col = np.full((rest.shape[0], 1), first, dtype=np.int16)
            blocks.append(np.hstack([col, rest]))
        out = np.vstack(blocks)
    cache[key] = out
    return out


def _grid(side: str, cells: int, blocks: int, delta: float, budget: int):
    """(compositions, steps, points) of the delta-grid over one simplex.

    The grid is held as int16 compositions of ``steps`` = 1 / delta into
    ``cells`` parts; ``points`` counts its ``blocks``-fold product and is
    checked before anything is allocated.
    """
    steps = round(1.0 / delta)
    if abs(steps * delta - 1.0) > 1e-9:
        raise ValueError("grid delta must divide 1 evenly")
    points = math.comb(steps + cells - 1, cells - 1) ** blocks
    if points > budget:
        raise ResourceError(
            f"{side} oracle needs {points} grid points for delta={delta}, budget is {budget}"
        )
    return _compositions(steps, cells, {}), steps, points


@dataclasses.dataclass(frozen=True)
class OracleSupport:
    lam1: float
    lam2: float
    value: float
    r1: float
    r2: float
    achiever: AuxiliaryDist


@dataclasses.dataclass(frozen=True)
class OracleResult:
    kind: str
    value: float | None
    achiever: AuxiliaryDist | None
    supports: tuple[OracleSupport, ...]
    grid_points: int


def brute_force_oracle(
    model: WiretapModel | GpModel,
    family: str | None = None,
    *,
    u_size: int | None = None,
    delta: float = 0.02,
    directions: Sequence[tuple[float, float]] | None = None,
    budget: int = DEFAULT_GRID_BUDGET,
) -> OracleResult:
    """Exhaustive delta-grid over the auxiliary domain.

    With ``family`` None the capacity objective I(U;Y1)-I(U;Z) is
    maximized; otherwise the family's support values over ``directions``
    are maximized.  GP models enumerate the product grid over the |Z|
    kernel rows, so budgets bind quickly there; a wiretap point is one
    block.  ``budget`` caps the points, checked before allocating.
    """
    side = "wiretap" if isinstance(model, WiretapModel) else "gp"
    u = u_size or default_u_size(model)
    if family is None:
        objective, lam = _SECRECY, None
    else:
        _check_family_model(family, model)
        objective = _family(family)[1]
        if directions is None:
            directions = sweep_directions(64)
        if not len(directions):  # an empty sweep scores no point
            return OracleResult(family, None, None, (), 0)
        lam = tuple(np.asarray(directions, dtype=np.float64).T)
    # a wiretap point is one (u, x) block: the |Z| = 1 case of the GP grid
    z_size = _blocks(model)
    row_grid, steps, n_points = _grid(side, u * model.x_size, z_size, delta, budget)
    k = 1 if lam is None else len(directions)
    best_vals = np.full(k, -math.inf)
    best_thetas = np.zeros((k, z_size * row_grid.shape[1]))
    term_map = _term_map(model, u, objective)
    step = term_map.chunk
    for start in range(0, n_points, step):
        stop = min(start + step, n_points)
        if z_size == 1:  # the product of one block is the row grid: slice, not copy
            chunk = row_grid[start:stop]
        else:  # point i concatenates the grid rows of its base-|grid| digits
            digits = np.unravel_index(np.arange(start, stop), (len(row_grid),) * z_size)
            chunk = np.concatenate([row_grid[d] for d in digits], axis=1)
        # compositions become probabilities one chunk at a time
        chunk = chunk / float(steps)
        vals = _score(model, objective, chunk, lam, term_map)
        i = vals.argmax(axis=0)
        better = vals[i, np.arange(k)] > best_vals
        best_vals[better] = vals[i[better], np.flatnonzero(better)]
        best_thetas[better] = chunk[i[better]]
    achievers = [aux_from_array(side, t, u, model.x_size, z_size=z_size) for t in best_thetas]
    if family is None:
        return OracleResult("capacity", max(float(best_vals[0]), 0.0), achievers[0], (), n_points)
    supports = []
    for (lam1, lam2), aux in zip(directions, achievers):
        sp = support_maximum(eval_rate_bounds(family, aux, model), lam1, lam2)
        supports.append(OracleSupport(lam1, lam2, sp.value, sp.r1, sp.r2, aux))
    return OracleResult(family, None, None, tuple(supports), n_points)


def hausdorff_distance(
    points_a: Iterable[tuple[float, float]],
    points_b: Iterable[tuple[float, float]],
    directions: int = 512,
) -> float:
    """Hausdorff distance between down-closed convex hulls of two point sets.

    For convex down-closed regions in the nonnegative quadrant this equals
    the largest support-function gap over unit directions in the quadrant.
    """
    a = np.asarray(list(points_a), dtype=np.float64)
    b = np.asarray(list(points_b), dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != 2 or b.shape[1] != 2:
        raise ShapeError("point sets must be (n, 2)")
    thetas = np.linspace(0.0, math.pi / 2.0, directions)
    lam = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    ha = (lam @ a.T).max(axis=1)
    hb = (lam @ b.T).max(axis=1)
    return float(np.abs(ha - hb).max())


# ---------------------------------------------------------------------------
# auxiliary reduction (two auxiliaries -> one)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReducedAuxiliary:
    aux: AuxiliaryDist
    case: int
    case1_margin: float  # I(T;Y2|V) - I(T;Y1,Z|V)
    case2_margin: float  # I(T;Y2|V) - I(T;Z|V)


def _sd_pair(p_vtx: JointPmf, model: WiretapModel) -> tuple[RateBounds, RateBounds]:
    """SD bounds of a p(v, t, x) with U = V and with U = (V, T)."""
    if tuple(p_vtx.axis_names) != ("v", "t", "x"):
        raise ShapeError(f"expected axes (v, t, x), got {p_vtx.axis_names}")
    if p_vtx.axis_size("x") != model.x_size:
        raise ShapeError("x alphabet mismatch")

    nv, nt, nx = p_vtx.mass.shape
    pairs = ((p_vtx.mass.sum(axis=1), nv), (p_vtx.mass, nv * nt))
    return tuple(_joint_bounds("SD-WT", _joint_batch(model, p[None], u), None) for p, u in pairs)


def two_auxiliary_bounds(p_vtx: JointPmf, model: WiretapModel) -> RateBounds:
    """Semi-deterministic bounds with the (V, T) pair playing the auxiliary.

    R2 is bounded through V alone, the sum rate through the pair; this is
    the starting point the single-auxiliary reduction must dominate.
    """
    v, vt = _sd_pair(p_vtx, model)
    return dataclasses.replace(vt, r2=v.r2, raw_r2=v.raw_r2)


def reduce_auxiliary(p_vtx: JointPmf, model: WiretapModel) -> ReducedAuxiliary:
    """Collapse a (V, T) auxiliary pair to a single U without losing rates.

    Case 1 (I(T;Y2|V) <= I(T;Y1,Z|V)): U = V.  Case 2 (otherwise): U =
    (V, T); its R2 bound gains the nonnegative I(T;Y2|V) - I(T;Z|V).  In
    both cases the single-auxiliary bounds componentwise dominate
    ``two_auxiliary_bounds``.
    """
    flags = classify(model)
    if not flags.semi_deterministic:
        raise ClassificationError("auxiliary reduction applies to SD models")
    # I(T;B|V) = I(V,T;B) - I(V;B) turns both margins into differences of
    # the SD sum and R2 bounds between U = (V, T) and U = V
    v, vt = _sd_pair(p_vtx, model)
    case1 = vt.raw_sum - v.raw_sum
    case2 = vt.raw_r2 - v.raw_r2
    nv, nt, nx = p_vtx.mass.shape
    if case1 <= 1e-12:
        p_ux = p_vtx.mass.sum(axis=1)
        aux = AuxiliaryDist(
            "wiretap",
            JointPmf([Axis("u", nv), Axis("x", nx)], p_ux),
            allow_large_u=nv > model.x_size + 1,
        )
        return ReducedAuxiliary(aux=aux, case=1, case1_margin=case1, case2_margin=case2)
    p_ux = p_vtx.mass.reshape(nv * nt, nx)
    aux = AuxiliaryDist(
        "wiretap",
        JointPmf([Axis("u", nv * nt), Axis("x", nx)], p_ux),
        allow_large_u=nv * nt > model.x_size + 1,
    )
    return ReducedAuxiliary(aux=aux, case=2, case1_margin=case1, case2_margin=case2)


# ---------------------------------------------------------------------------
# artifact export
# ---------------------------------------------------------------------------


def region_to_dict(region: RateRegion) -> dict:
    return {
        "family": region.family,
        "metadata": region.metadata,
        "supports": [
            {
                "lambda1": s.lam1,
                "lambda2": s.lam2,
                "support_value": s.value,
                "r1": s.r1,
                "r2": s.r2,
                "converged": s.converged,
                "achiever": aux_to_dict(s.achiever),
            }
            for s in region.supports
        ],
        "boundary": [
            {"r1": b.r1, "r2": b.r2, "sample_index": b.sample_index}
            for b in region.boundary
        ],
    }


def export_region(
    region: RateRegion, csv_path: str | Path, json_path: str | Path | None = None
) -> None:
    """Write the frontier CSV (9 significant digits) and the JSON sidecar."""
    lines = ["lambda1,lambda2,support_value,R1,R2"]
    for s in region.supports:
        lines.append(
            ",".join(
                format(v, ".9g") for v in (s.lam1, s.lam2, s.value, s.r1, s.r2)
            )
        )
    Path(csv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(region_to_dict(region), fh, indent=2, sort_keys=True)
            fh.write("\n")
