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
terms, evaluated by one kernel over a batch of rows.  The kernel asks a
marginal provider for each term's marginal.  The model provider builds
it from the auxiliary rows and the law alone, never the full joint; the
searches, the grid oracle and ``eval_rate_bounds`` (a batch of one) use
it.  The sum-down provider sums a prebuilt joint down, for
``rate_bounds_from_joint``: given the same numeric joint, both sides
therefore run the identical code path and their bounds agree bitwise;
that equality is the single-letter face of the analogy.  The support
function likewise has one vertex definition shared by the scalar maximum,
the batched value and the gradient's weights.

Searches maximize over the auxiliary distribution with multistart
exponentiated-gradient ascent (Dirichlet(1, ..., 1) restarts, step-halving
line search, convergence when a pass improves by less than ``tol``).  The
variable is one vector over a product of simplices: one p(u, x) block on
the wiretap side, one q(u, x | z) block per state on the GP side, so a
wiretap search is the one-block case of a GP search.  Each pass scales
the whole vector by 2^(step * gradient), normalized block by block.  The
gradient is exact: the model provider applies each term marginal's
transpose to -log2 m, and a support objective weighs its bounds by the
vertex piece the support value picks.
``_search`` runs every search: a capacity is one key, a frontier one key per
direction, and all keys' restarts go through one ascent in which each
row reads its own key's lambdas and stops on its own.
``brute_force_oracle`` enumerates a delta-grid over the same
domain and is the independent reference the searches are tested
against; a wiretap point is the one-block (|Z| = 1) case of the GP
product grid.  The ascent and the oracle score rows with one evaluator,
in chunks of rows whose joints would hold at most ``_CHUNK_CELLS``
cells.  Negative bound values are clamped to zero for reporting; raw
values are preserved on every ``RateBounds``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
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
# rows scored at once in the searches and the oracle: their joints would hold
# at most this many cells, so no term marginal built for them holds more
_CHUNK_CELLS = 1 << 22


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


# a term's marginal: its kept axes -> the (b, ...) marginal of each batch row
Marginals = Callable[[tuple[int, ...]], np.ndarray]


def _summed_down(j: np.ndarray) -> Marginals:
    """Marginals of a prebuilt (b, u, x, y1, y2, z) joint batch, summed down."""

    def marginal(keep: tuple[int, ...]) -> np.ndarray:
        drop = tuple(i for i in range(1, j.ndim) if i not in keep)
        return j.sum(axis=drop) if drop else j

    return marginal


class _ModelMarginals:
    """Marginals of the single-letter joints of flat auxiliary rows, each
    built from the auxiliary and the law without the joint, and their
    adjoints.

    The rows are held as blocks (b, s, u, x) and the law as (s, x, outs).
    On the GP side s is the state z, shared by both factors, and the law
    holds q(z); a wiretap row is the one-block case, whose law keeps z
    among its outputs.  A term's marginal sums the law down to the outputs
    it keeps and, when it drops U, sums u out of the blocks; then one
    product contracts x: a matrix product (over s too when the term drops
    Z), or a broadcast product when the term keeps X.  Each marginal is a
    fixed linear map of the rows, and ``adjoint`` applies its transpose.
    """

    def __init__(self, model: WiretapModel | GpModel, theta: np.ndarray, u_size: int):
        b = len(theta)
        if isinstance(model, WiretapModel):
            sizes = dict(zip((_X, _Y1, _Y2, _Z), model.law.shape))
            self.law, self.outs = model.law[None], (_Y1, _Y2, _Z)
            self.blocks = theta.reshape(b, 1, u_size, model.x_size)
        else:
            sizes = dict(zip((_X, _Z, _Y1, _Y2), model.law.shape))
            law = model.law * model.state_dist.mass[:, None, None]
            self.law, self.outs = law.transpose(1, 0, 2, 3), (_Y1, _Y2)
            self.blocks = theta.reshape(b, model.z_size, u_size, model.x_size)
        sizes[_U] = u_size
        self.sizes = sizes
        self.no_u = self.blocks.sum(axis=2, keepdims=True)
        self.laws: dict[tuple[int, ...], np.ndarray] = {}

    def _kept_law(self, keep: tuple[int, ...]) -> np.ndarray:
        """The law summed down to the outputs ``keep`` keeps: (s, x, kept outs)."""
        drop = tuple(2 + i for i, ax in enumerate(self.outs) if ax not in keep)
        if drop not in self.laws:
            self.laws[drop] = self.law.sum(axis=drop) if drop else self.law
        return self.laws[drop]

    def __call__(self, keep: tuple[int, ...]) -> np.ndarray:
        p = self.blocks if _U in keep else self.no_u
        lk = self._kept_law(keep)
        s, nx = lk.shape[:2]
        if _X in keep:  # (b, s, u, x, outs)
            m = p.reshape(p.shape + (1,) * (lk.ndim - 2)) * lk[None, :, None]
            m = m.transpose(0, *range(2, m.ndim), 1) if _Z in keep else m.sum(axis=1)
        elif _Z in keep:  # (s, b * u, outs)
            m = p.transpose(1, 0, 2, 3).reshape(s, -1, nx) @ lk.reshape(s, nx, -1)
            m = m.transpose(1, 2, 0)
        else:
            m = p.transpose(0, 2, 1, 3).reshape(-1, s * nx) @ lk.reshape(s * nx, -1)
        return m.reshape((len(p),) + tuple(self.sizes[i] for i in sorted(keep)))

    def adjoint(self, keep: tuple[int, ...], g: np.ndarray) -> np.ndarray:
        """The transpose of ``self(keep)`` applied to a (b, ...) batch ``g``
        shaped like that marginal: the (b, s, u, x) blocks, or (b, s, 1, x)
        when the term drops U (its value broadcasts over u)."""
        b, s, u, nx = (self.blocks if _U in keep else self.no_u).shape
        lk = self._kept_law(keep)
        outs = lk.shape[2:]
        if _X in keep:  # a sum over the kept outputs
            if _Z in keep:
                g = g.reshape((b, u, nx) + outs + (s,))
                g = g.transpose(0, g.ndim - 1, *range(1, g.ndim - 1))
            else:
                g = g.reshape((b, 1, u, nx) + outs)
            return (g * lk[None, :, None]).sum(axis=tuple(range(4, g.ndim)))
        if _Z in keep:  # (s, b * u, outs) times lk transposed
            g = g.reshape(b * u, -1, s).transpose(2, 0, 1)
            p = g @ lk.reshape(s, nx, -1).transpose(0, 2, 1)
            return p.reshape(s, b, u, nx).transpose(1, 0, 2, 3)
        p = g.reshape(b * u, -1) @ lk.reshape(s * nx, -1).T
        return p.reshape(b, u, s, nx).transpose(0, 2, 1, 3)


def _batch_entropy(m: np.ndarray) -> np.ndarray:
    """Entropies (bits) of a (b, ...) batch of marginals, per batch row."""
    m = m.reshape(m.shape[0], -1)
    # 0 log 0 = 0: empty cells take log2(1) = 0
    return -(m * np.log2(np.where(m > 0.0, m, 1.0))).sum(axis=1)


def _evaluate(
    marginal: Marginals | np.ndarray, names: Sequence[str | None]
) -> list[np.ndarray | None]:
    """Per-row values of the named expressions.

    ``marginal`` gives each term's marginal; a (b, u, x, y1, y2, z) joint
    batch stands for its ``_summed_down`` marginals.  Each distinct
    marginal entropy is computed once per call and dropped after its last
    use.
    """
    if isinstance(marginal, np.ndarray):
        marginal = _summed_down(marginal)
    uses = Counter(keep for name in names if name for _, keep in _EXPRESSIONS[name])
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def h(keep: tuple[int, ...]) -> np.ndarray:
        if keep not in cache:
            cache[keep] = _batch_entropy(marginal(keep))
        uses[keep] -= 1
        return cache[keep] if uses[keep] else cache.pop(keep)

    out: list[np.ndarray | None] = []
    for name in names:
        if name is None:
            out.append(None)
            continue
        (sign, keep), *rest = _EXPRESSIONS[name]
        acc = h(keep) if sign > 0 else -h(keep)
        for sign, keep in rest:
            acc = acc + h(keep) if sign > 0 else acc - h(keep)
        out.append(acc)
    return out


def _rates(kind: str, marginal: Marginals | np.ndarray, coop: float | None):
    """Raw (r1, r2, r_sum) per batch row; r_sum is None without a sum bound."""
    r1, r2, rs = _evaluate(marginal, _KIND_ROWS[kind])
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


def _rate_bounds(family: str, r1, r2, rs) -> RateBounds:
    """RateBounds from the raw values of a batch of one."""
    raw = [None if v is None else float(v[0]) for v in (r1, r2, rs)]
    clamped = [None if v is None else max(v, 0.0) for v in raw]
    return RateBounds(family, *clamped, *raw)


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
    return _rate_bounds(family, *_rates(kind, j, coop_capacity))


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
    marginal = _ModelMarginals(model, _aux_row(model, aux), aux.u_size)
    return _rate_bounds(family, *_rates(_family(family)[1], marginal, model.coop_capacity))


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
    """(n, steps, total) candidates base * 2^(step * (grad - m)), block-normalized.

    m is each block's largest gradient over its positive entries and exponents
    are clipped at 0, so that entry keeps its mass (no block sums to 0).
    """
    b = base.reshape(len(base), 1, -1, row)
    g = grad.reshape(b.shape)
    m = np.where(b > 0.0, g, -np.inf).max(axis=3, keepdims=True)
    cand = b * np.exp2(np.minimum(steps[:, None, None] * (g - m), 0.0))
    return _normalize_blocks(cand.reshape(-1, base.shape[1]), row).reshape(cand.shape[:2] + (-1,))


# first step (exponent per bit of gradient) and halvings per pass of _ascend
_STEP0 = 256.0
_LADDER = 30


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
    exact gradient g (bits) from ``grad``, then one step-halving ladder of
    candidates theta * 2^(step * g), normalized block by block; a row
    keeps its best candidate and the value ``f`` gave it.  Returns
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
    steps = _STEP0 * 0.5 ** np.arange(_LADDER)
    passes = 0
    while active.any() and passes < params.max_passes:
        passes += 1
        idx = np.flatnonzero(active)
        base = theta[idx]
        # step-halving ladder, evaluated in one batch
        cand = _mirror_candidates(base, grad(base, keys[idx]), steps, row)
        fv2 = f(cand.reshape(-1, total), np.repeat(keys[idx], len(steps))).reshape(len(idx), -1)
        best = fv2.argmax(axis=1)
        bestv = fv2[np.arange(len(idx)), best]
        better = bestv > vals[idx] + 1e-15
        upd = idx[better]
        theta[upd] = cand[better, best[better]]
        active[idx] = np.where(better, bestv - vals[idx], 0.0) > params.tol
        vals[upd] = bestv[better]
    return vals, theta, active


def _dirichlet_starts(
    seed: int, key: int, restarts: int, row: int, n_blocks: int
) -> np.ndarray:
    """Dirichlet(1, ..., 1) starts, block after block, from ``SeedSequence(seed, (key,))``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    return np.hstack([rng.dirichlet(np.ones(row), size=restarts) for _ in range(n_blocks)])


def _chunk_rows(model: WiretapModel | GpModel, u_size: int) -> int:
    """Rows whose joints would hold at most ``_CHUNK_CELLS`` cells together."""
    return max(1, _CHUNK_CELLS // (u_size * model.law.size))


def _score(
    model: WiretapModel | GpModel,
    u_size: int,
    objective: str,
    theta: np.ndarray,
    lam: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """(rows, K) values of ``objective`` on raw (not block-normalized) rows.

    The one evaluator of the searches and the oracle, run in chunks of
    ``_chunk_rows`` rows.  A capacity expression gives K = 1; a structural
    kind gives support values at ``lam = (lam1, lam2)``, arrays that
    broadcast against a column of rows: (K,) for K directions per row,
    (rows, 1) for one direction per row.
    """
    step = _chunk_rows(model, u_size)
    kind = objective in _KIND_ROWS
    parts = [
        _rates(objective, m, model.coop_capacity) if kind else _evaluate(m, (objective,))
        for m in (
            _ModelMarginals(model, theta[i : i + step], u_size)
            for i in range(0, len(theta), step)
        )
    ]
    vals = [None if v[0] is None else np.concatenate(v)[:, None] for v in zip(*parts)]
    return _batch_support(*vals, *lam) if kind else vals[0]


def _gradient(
    model: WiretapModel | GpModel,
    u_size: int,
    objective: str,
    theta: np.ndarray,
    lam: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """(rows, total) gradient (bits) of ``_score``'s values at raw rows.

    Entropy term H(A theta) has gradient A^T (-log2 m - 1/ln 2) with m =
    A theta, empty cells taking 0.  The 1/ln 2 parts cancel: A^T 1 is the
    same vector for every term (1 on the wiretap side, q(z) on the GP
    side) and the signs of every expression sum to 0, so only -log2 m is
    mapped back.  Each distinct marginal enters once, with the sum of its
    signs in the expressions weighted by their per-row weights.  A
    capacity expression weighs 1; a structural kind weighs its (r1, r2,
    r_sum) by ``_support_weights`` at ``lam``, (rows, 1) arrays of one
    direction per row.  Run in ``_chunk_rows`` chunks, as ``_score``.
    """
    step = _chunk_rows(model, u_size)
    kind = objective in _KIND_ROWS
    names = _KIND_ROWS[objective] if kind else (objective,)
    out = []
    for i in range(0, len(theta), step):
        chunk = theta[i : i + step]
        marginals = _ModelMarginals(model, chunk, u_size)
        m = {keep: marginals(keep) for name in names if name for _, keep in _EXPRESSIONS[name]}
        weights = (1.0,)
        if kind:
            r = _rates(objective, m.__getitem__, model.coop_capacity)
            weights = _support_weights(*r, *(v[i : i + step, 0] for v in lam))
        coef = dict.fromkeys(m, 0.0)
        for name, w in zip(names, weights):
            for sign, keep in _EXPRESSIONS[name] if name else ():
                coef[keep] = coef[keep] + sign * w
        grad = np.zeros(marginals.blocks.shape)
        for keep, mk in m.items():
            c = np.reshape(coef[keep], (-1,) + (1,) * (mk.ndim - 1))
            grad += marginals.adjoint(keep, np.log2(np.where(mk > 0.0, mk, 1.0)) * -c)
        out.append(grad.reshape(len(chunk), -1))
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
    row = u_size * model.x_size
    n_blocks = model.z_size if isinstance(model, GpModel) else 1
    lam = None if directions is None else np.asarray(directions, dtype=np.float64)
    n_keys = 1 if lam is None else len(lam)

    def per_row(keys: np.ndarray):
        return None if lam is None else (lam[keys, :1], lam[keys, 1:])

    def f(theta: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return _score(model, u_size, objective, _normalize_blocks(theta, row), per_row(keys))[:, 0]

    def grad(theta: np.ndarray, keys: np.ndarray) -> np.ndarray:
        return _gradient(model, u_size, objective, theta, per_row(keys))

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
        z_size = model.z_size if side == "gp" else 1
        aux = aux_from_array(side, win.theta, u_size, model.x_size, z_size=z_size)
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
    z_size = model.z_size if side == "gp" else 1
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
        lam = tuple(np.asarray(directions, dtype=np.float64).T)
    # a wiretap point is one (u, x) block: the |Z| = 1 case of the GP grid
    z_size = model.z_size if side == "gp" else 1
    row_grid, steps, n_points = _grid(side, u * model.x_size, z_size, delta, budget)
    k = 1 if lam is None else len(directions)
    best_vals = np.full(k, -math.inf)
    best_thetas = np.zeros((k, z_size * row_grid.shape[1]))
    step = _chunk_rows(model, u)
    for start in range(0, n_points, step):
        stop = min(start + step, n_points)
        if z_size == 1:  # the product of one block is the row grid: slice, not copy
            chunk = row_grid[start:stop]
        else:  # point i concatenates the grid rows of its base-|grid| digits
            digits = np.unravel_index(np.arange(start, stop), (len(row_grid),) * z_size)
            chunk = np.concatenate([row_grid[d] for d in digits], axis=1)
        # compositions become probabilities one chunk at a time
        chunk = chunk / float(steps)
        vals = _score(model, u, objective, chunk, lam)
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

    def sd(p_ux: np.ndarray) -> RateBounds:
        marginal = _ModelMarginals(model, p_ux.reshape(1, -1), p_ux.shape[0])
        return _rate_bounds("SD-WT", *_rates("SD", marginal, None))

    nv, nt, nx = p_vtx.mass.shape
    return sd(p_vtx.mass.sum(axis=1)), sd(p_vtx.mass.reshape(nv * nt, nx))


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
