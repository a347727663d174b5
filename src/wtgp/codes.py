"""Finite-blocklength codes: sampling, enumeration, and exact identities.

The superposition scheme for a two-receiver wiretap model draws an inner
codeword u(m2, w2) i.i.d. from p_U and, for every (m1, w1), an outer
codeword x(m1, w1 | m2, w2) letterwise from p_{X|U}.  The encoder picks
(w1, w2) uniformly at random.  Receiver 1 looks for a unique tuple
(m1, m2, w1, w2) whose (u, x, observation) triple sequence is
letter-typical for the code's reference joint; receiver 2 looks for a
unique (m2, w2) pair against (u, y2).  Any failure (no match or more than
one match) decodes to message index 0; that convention is normative and
enters the exact error probabilities.  When the model is
informed-receiver, receiver 1's observation letters are (y1, z) pairs
encoded as y1 * |Z| + z.

``induced_joint`` gives the joint of one code run, either by exact
enumeration or by Monte Carlo over a counter-based Philox stream keyed by
(seed, trial block), which makes trial blocks order-independent.  Exact
enumeration is one product for both sides over (m1, m2, x^n, y1^n, y2^n,
z^n): weight(m1, m2, x^n, z^n) x kernel(x^n -> y1^n, y2^n, z^n), and
each exact metric contracts it to its own marginal without building it.
A wiretap code's weight is unif x its encoder kernel and its kernel the
n-letter power of the channel law; a GP code's weight is (unif x q_Z^n) x
its encoder table and its kernel the power of the state-dependent law.
From (m, z^n) on, a wiretap code and the GP code it induces share that
kernel and the decoders.  The estimates (mh1, mh2) are functions of
(y1^n, z^n) and y2^n, so an exact run carries the decode maps instead of
estimate axes; Monte Carlo counts the (m1, m2, mh1, mh2, z^n) view.  One
``budget`` caps the cells of the full joint or of the view.  Exact runs
support three identities used as test anchors and CLI diagnostics, and a
gap beyond rounding raises ``NumericalError``:

* error probability equals the total variation between the (M, Mh)
  marginal and uniform-messages-correctly-decoded;
* effective secrecy splits exactly: D(P_{M,Z^n} || unif x q_Z^n) =
  I(M; Z^n) + D(P_{Z^n} || q_Z^n) (+ D(P_M || unif), zero under exact
  enumeration);
* the GP code induced from a wiretap code shares a channel kernel with
  its ideal, so the full-joint total variation collapses to
  || P_{M, Z^n} - unif x q_Z^n ||.

``multiletter_converse_gap`` evaluates the n-letter converse with
U_i = (M, Y^{i-1}, Z_{i+1}^n): the slack
(1/n) sum_i [I(U_i; Y_i) - I(U_i; Z_i)] + 1/n + R * P_e - R is
nonnegative for every exactly-enumerated GP code.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .channels import GpModel, WiretapModel, analogous_gpbc, default_state_dist
from . import divergence
from .divergence import (
    blocked_total_variation,
    is_typical,
    mutual_information,
    relative_entropy,
    total_variation,
)
from .errors import NumericalError, ResourceError, ShapeError
from .pmf import Axis, FinitePmf, JointPmf, check_rows

DEFAULT_ENUM_BUDGET = 10**8
DEFAULT_TABLE_BUDGET = 1 << 20
MC_BLOCK = 4096
# power cells an exact marginal builds at a time (one row when rows are larger)
_POWER_CELLS = 1 << 15


# ---------------------------------------------------------------------------
# sequence index helpers (first letter most significant, row-major)
# ---------------------------------------------------------------------------


def _check_seq_space(base: int, n: int) -> None:
    """Refuse n-letter sequences whose flat indices 0 .. base**n - 1 overflow int64."""
    if base > 1 and (n >= 64 or base**n > 1 << 63):
        raise ResourceError(f"{base}**{n} sequences overflow int64 flat indices")


def _seq_powers(base: int, n: int) -> np.ndarray:
    _check_seq_space(base, n)
    return base ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _seq_index(letters: np.ndarray, base: int) -> np.ndarray:
    letters = np.asarray(letters, dtype=np.int64)
    return letters @ _seq_powers(base, letters.shape[-1])


def _seq_digits(indices: np.ndarray, base: int, n: int) -> np.ndarray:
    _check_seq_space(base, n)
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty(indices.shape + (n,), dtype=np.int64)
    rem = indices
    for i in range(n - 1, -1, -1):
        out[..., i] = rem % base
        rem = rem // base
    return out


def _seq_power(law: np.ndarray, n: int) -> np.ndarray:
    """n-letter power of a per-letter law, one flat sequence axis per law axis.

    Entry (s_1, ..., s_k) is the product over letters of
    law[s_1[i], ..., s_k[i]], taken first letter first.  A vector gives
    the iid mass of all its base**n sequences.
    """
    law = np.asarray(law, dtype=np.float64)
    # each step appends one letter to every sequence axis as its least
    # significant digit, so the axes never need a transpose
    letter = law.reshape([s for d in law.shape for s in (1, d)])
    out = law
    for _ in range(n - 1):
        prefix = out.reshape([s for d in out.shape for s in (d, 1)])
        out = (prefix * letter).reshape([a * b for a, b in zip(out.shape, law.shape)])
    return out


def _seq_power_rows(law: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """``_seq_power(law, n)[rows]``, built over the first-axis sequences ``rows`` only.

    Each row multiplies its letters first letter first, as ``_seq_power``
    does, so every cell is bitwise the same.
    """
    law = np.asarray(law, dtype=np.float64)
    digits = _seq_digits(rows, law.shape[0], n)  # (r, n)
    r, rest = digits.shape[0], law.shape[1:]
    out = law[digits[:, 0]]
    for i in range(1, n):
        prefix = out.reshape([r] + [s for d in out.shape[1:] for s in (d, 1)])
        letter = law[digits[:, i]].reshape([r] + [s for d in rest for s in (1, d)])
        out = (prefix * letter).reshape([r] + [a * b for a, b in zip(out.shape[1:], rest)])
    return out


# ---------------------------------------------------------------------------
# code objects
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CodeRates:
    """Message rates (r1, r2) and local-randomization rates (rt1, rt2)."""

    r1: float
    r2: float = 0.0
    rt1: float = 0.0
    rt2: float = 0.0

    def sizes(self, n: int) -> tuple[int, int, int, int]:
        def size(r: float) -> int:
            return max(1, math.ceil(2.0 ** (n * r) - 1e-9))

        return size(self.r1), size(self.r2), size(self.rt1), size(self.rt2)


@dataclasses.dataclass(frozen=True)
class SuperpositionCodebook:
    n: int
    seed: int
    p_ux: JointPmf  # generating joint, axes (u, x)
    m1_size: int
    w1_size: int
    m2_size: int
    w2_size: int
    inner: np.ndarray  # (m2, w2, n) letters of U
    outer: np.ndarray  # (m1, w1, m2, w2, n) letters of X

    @property
    def u_size(self) -> int:
        return self.p_ux.axis_size("u")

    @property
    def x_size(self) -> int:
        return self.p_ux.axis_size("x")


def sample_codebook(
    p_ux: JointPmf,
    n: int,
    rates: CodeRates,
    seed: int,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> SuperpositionCodebook:
    """Draw a superposition codebook; regeneration is bit-identical.

    Each inner codeword uses an independent stream keyed by
    (seed, 0, m2, w2), each outer codeword by (seed, 1, m1, w1, m2, w2),
    so the tables do not depend on sampling order.
    """
    if tuple(p_ux.axis_names) != ("u", "x"):
        raise ShapeError(f"expected axes (u, x), got {p_ux.axis_names}")
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    m1s, m2s, w1s, w2s = rates.sizes(n)
    cells = (m2s * w2s + m1s * w1s * m2s * w2s) * n
    if cells > table_budget:
        raise ResourceError(
            f"codebook tables need {cells} cells, budget is {table_budget}"
        )
    us = p_ux.axis_size("u")
    xs = p_ux.axis_size("x")
    p_u = p_ux.marginalize(["u"]).mass
    x_given_u = p_ux.condition(["u"]).rows  # (u, x); zero-mass u rows are unused
    cum_x = np.cumsum(x_given_u, axis=1)

    inner = np.empty((m2s, w2s, n), dtype=np.int64)
    cum_u = np.cumsum(p_u)
    for m2 in range(m2s):
        for w2 in range(w2s):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(0, m2, w2))
            )
            r = rng.random(n)
            inner[m2, w2] = np.searchsorted(cum_u, r, side="right").clip(0, us - 1)

    outer = np.empty((m1s, w1s, m2s, w2s, n), dtype=np.int64)
    for m1 in range(m1s):
        for w1 in range(w1s):
            for m2 in range(m2s):
                for w2 in range(w2s):
                    rng = np.random.default_rng(
                        np.random.SeedSequence(
                            entropy=seed, spawn_key=(1, m1, w1, m2, w2)
                        )
                    )
                    rows = cum_x[inner[m2, w2]]  # (n, xs)
                    r = rng.random(n)
                    outer[m1, w1, m2, w2] = (
                        (r[:, None] > rows[:, :-1]).sum(axis=1).clip(0, xs - 1)
                    )
    inner.setflags(write=False)
    outer.setflags(write=False)
    return SuperpositionCodebook(
        n=n,
        seed=int(seed),
        p_ux=p_ux,
        m1_size=m1s,
        w1_size=w1s,
        m2_size=m2s,
        w2_size=w2s,
        inner=inner,
        outer=outer,
    )


@dataclasses.dataclass(frozen=True)
class BlockCode:
    """A blocklength-n code with precomputed decode tables.

    Wiretap side: either codebook-backed (superposition) or an explicit
    stochastic encoder table over (m1, m2) -> flat x^n.  GP side: an
    explicit encoder table over (m1, m2, flat z^n) -> flat x^n.  Decoder
    tables map flat observation sequences to message estimates; receiver
    1's observation alphabet is y1, or (y1, z) pairs when ``informed``.
    """

    side: str
    n: int
    m1_size: int
    m2_size: int
    rates: CodeRates
    informed: bool
    u_size: int
    x_size: int
    y1_size: int
    y2_size: int
    z_size: int
    eps: float | None
    dec1: np.ndarray  # (obs1_size**n,) -> mh1
    dec2: np.ndarray  # (y2_size**n,) -> mh2
    codebook: SuperpositionCodebook | None = None
    encoder_table: np.ndarray | None = None
    encoder_filled: tuple = ()
    ref1: np.ndarray | None = None  # (u, x, obs1) typicality reference
    ref2: np.ndarray | None = None  # (u, y2)
    meta: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.side not in ("wiretap", "gp"):
            raise ValueError("side must be 'wiretap' or 'gp'")
        if self.side == "wiretap" and self.codebook is None and self.encoder_table is None:
            raise ValueError("wiretap code needs a codebook or an encoder table")
        if self.side == "gp" and self.encoder_table is None:
            raise ValueError("gp code needs an encoder table")
        self.dec1.setflags(write=False)
        self.dec2.setflags(write=False)

    @property
    def obs1_size(self) -> int:
        return self.y1_size * self.z_size if self.informed else self.y1_size


def _allowed_strings(ok_a: np.ndarray, k: int) -> np.ndarray:
    """(m, k) observation strings whose letter counts all pass ``ok_a[o, count]``.

    Strings grow one letter at a time, and a prefix is dropped once a
    count exceeds the largest passing count of its letter: counts only
    grow, so no extension of it can pass.  While they grow, letters and
    counts are kept in the narrowest unsigned type that holds them: under
    a dense reference most of the base_o**k strings are allowed.
    """
    base_o = ok_a.shape[0]
    passing = ok_a[:, : k + 1]
    top = (np.arange(k + 1) * passing).max(axis=1)
    small = np.min_scalar_type(max(base_o - 1, k))
    strings = np.zeros((1, 0), dtype=small)
    counts = np.zeros((1, base_o), dtype=small)
    for _ in range(k):
        rows, letter = np.nonzero(counts < top)
        strings = np.column_stack([strings[rows], letter.astype(small)])
        counts = counts[rows]
        counts[np.arange(rows.size), letter] += 1
    return strings[passing[np.arange(base_o), counts].all(axis=1)].astype(np.int64)


def _typical_sets(cand_codes: np.ndarray, ref: np.ndarray, eps: float):
    """Per candidate, the flat indices of its jointly letter-typical observations.

    ``cand_codes`` holds (C, n) candidate letters and ``ref`` the (letters,
    observation letters) reference joint.  The bins of different
    candidate letters a are disjoint, so a pair is typical exactly when,
    for every letter a the candidate holds, the observation letters at
    the positions P_a = {t : c_t = a} have a histogram passing a's bins,
    and every letter it lacks passes all its bins at count 0.  A
    candidate's typical set is then the outer sum over its letters of the
    allowed strings of length |P_a|, each placed at P_a; each string list
    is enumerated once per (a, |P_a|).
    """
    n = cand_codes.shape[1]
    nu = np.arange(n + 1) / float(n)
    ok = ~(np.abs(nu - ref[..., None]) > eps * ref[..., None])  # (letters, base_o, n + 1)
    empty_ok = ok[:, :, 0].all(axis=1)
    weights = _seq_powers(ref.shape[1], n)
    allowed: dict[tuple[int, int], np.ndarray] = {}
    for cand in cand_codes:
        sizes = np.bincount(cand, minlength=len(ref))
        idx = np.zeros(1 if empty_ok[sizes == 0].all() else 0, dtype=np.int64)
        for a in np.flatnonzero(sizes):
            if not idx.size:
                break
            key = (int(a), int(sizes[a]))
            if key not in allowed:
                allowed[key] = _allowed_strings(ok[a], key[1])
            idx = (idx[:, None] + allowed[key] @ weights[cand == a]).ravel()
        yield idx


def _decode_all(
    cand_codes: np.ndarray,  # (C, n) per-letter candidate codes
    cand_message: np.ndarray,  # (C,) message index of each candidate
    ref: np.ndarray,  # (candidate codes, base_o) reference joint
    eps: float,
) -> np.ndarray:
    """Unique-tuple typicality decoding of every observation sequence.

    Failures decode to message 0.  Each candidate writes its message over
    its typical set and bumps a hit count capped at 2; the indices of one
    set are distinct, so an observation keeps a message exactly when one
    candidate hit it.
    """
    out = np.zeros(ref.shape[1] ** cand_codes.shape[1], dtype=np.int64)
    hits = np.zeros(out.size, dtype=np.uint8)
    for message, idx in zip(cand_message, _typical_sets(cand_codes, ref, eps)):
        hits[idx] = np.minimum(hits[idx], 1) + 1
        out[idx] = message
    # hits is 0, 1 or 2, so hits & 1 is 1 exactly where one candidate hit
    hits &= 1
    out *= hits
    return out


def _receiver1_candidates(cb: SuperpositionCodebook):
    """Per-candidate (u, x) letter codes and message labels for receiver 1."""
    m1s, w1s, m2s, w2s, n = cb.outer.shape
    cands = (cb.inner[None, None] * cb.x_size + cb.outer).reshape(-1, n)
    return cands, np.repeat(np.arange(m1s), w1s * m2s * w2s)


def _receiver2_candidates(cb: SuperpositionCodebook):
    m2s, w2s, n = cb.inner.shape
    return cb.inner.reshape(-1, n), np.repeat(np.arange(m2s), w2s)


def superposition_code(
    cb: SuperpositionCodebook,
    model: WiretapModel,
    eps: float,
    table_budget: int = DEFAULT_TABLE_BUDGET,
) -> BlockCode:
    """Attach typicality decode tables for ``model`` to a codebook."""
    if cb.x_size != model.x_size:
        raise ShapeError("codebook x alphabet does not match the model")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError("eps must be finite and >= 0")
    n = cb.n
    us, xs = cb.u_size, cb.x_size
    y1s, y2s, zs = model.y1_size, model.y2_size, model.z_size
    obs1 = y1s * zs if model.informed_receiver else y1s
    if obs1**n > table_budget or y2s**n > table_budget:
        raise ResourceError(
            f"decode tables need {obs1 ** n} + {y2s ** n} entries, "
            f"budget is {table_budget}"
        )
    p_ux = cb.p_ux.mass
    if model.informed_receiver:
        obs_given_x = model.law.sum(axis=2).reshape(xs, obs1)  # (x, y1*z)
    else:
        obs_given_x = model.law.sum(axis=(2, 3))  # (x, y1)
    ref1 = np.einsum("ux,xo->uxo", p_ux, obs_given_x)
    y2_given_x = model.law.sum(axis=(1, 3))  # (x, y2)
    ref2 = np.einsum("ux,xk->uk", p_ux, y2_given_x)

    cand1, lab1 = _receiver1_candidates(cb)
    cand2, lab2 = _receiver2_candidates(cb)
    dec1 = _decode_all(cand1, lab1, ref1.reshape(-1, obs1), eps)
    dec2 = _decode_all(cand2, lab2, ref2, eps)
    ref1.setflags(write=False)
    ref2.setflags(write=False)
    return BlockCode(
        side="wiretap",
        n=n,
        m1_size=cb.m1_size,
        m2_size=cb.m2_size,
        rates=CodeRates(
            r1=math.log2(cb.m1_size) / n,
            r2=math.log2(cb.m2_size) / n,
            rt1=math.log2(cb.w1_size) / n,
            rt2=math.log2(cb.w2_size) / n,
        ),
        informed=model.informed_receiver,
        u_size=us,
        x_size=xs,
        y1_size=y1s,
        y2_size=y2s,
        z_size=zs,
        eps=float(eps),
        dec1=dec1,
        dec2=dec2,
        codebook=cb,
        ref1=ref1,
        ref2=ref2,
        meta={"seed": cb.seed},
    )


def wiretap_code_from_tables(
    model: WiretapModel,
    n: int,
    encoder_table: np.ndarray,  # (m1, m2, x_size**n)
    dec1: np.ndarray,
    dec2: np.ndarray,
    encoder_filled: tuple = (),
) -> BlockCode:
    """Explicit-table wiretap code (deterministic or stochastic encoder)."""
    enc = np.asarray(encoder_table, dtype=np.float64)
    if enc.ndim != 3 or enc.shape[2] != model.x_size**n:
        raise ShapeError("encoder table must be (m1, m2, x_size**n)")
    check_rows(enc, 2, "encoder rows must be pmfs: encoder table")
    m1s, m2s = enc.shape[0], enc.shape[1]
    return BlockCode(
        side="wiretap",
        n=n,
        m1_size=m1s,
        m2_size=m2s,
        rates=CodeRates(r1=math.log2(m1s) / n, r2=math.log2(m2s) / n),
        informed=model.informed_receiver,
        u_size=1,
        x_size=model.x_size,
        y1_size=model.y1_size,
        y2_size=model.y2_size,
        z_size=model.z_size,
        eps=None,
        dec1=np.asarray(dec1, dtype=np.int64),
        dec2=np.asarray(dec2, dtype=np.int64),
        encoder_table=enc,
        encoder_filled=tuple(encoder_filled),
    )


def wiretap_encode(code: BlockCode, m1: int, m2: int, randomness) -> np.ndarray:
    """Channel input sequence for (m1, m2).

    ``randomness`` is either an explicit (w1, w2) pair or a numpy
    Generator used to draw the local randomness uniformly.
    """
    if code.side != "wiretap":
        raise ValueError("wiretap_encode needs a wiretap-side code")
    cb = code.codebook
    if cb is None:
        if not isinstance(randomness, np.random.Generator):
            raise ValueError("explicit-encoder codes need a Generator")
        row = code.encoder_table[int(m1), int(m2)]
        xf = int(randomness.choice(row.size, p=row))
        return _seq_digits(np.array(xf), code.x_size, code.n).reshape(-1)
    if isinstance(randomness, np.random.Generator):
        w1 = int(randomness.integers(cb.w1_size))
        w2 = int(randomness.integers(cb.w2_size))
    else:
        w1, w2 = int(randomness[0]), int(randomness[1])
    return cb.outer[int(m1), w1, int(m2), w2].copy()


def encoder_kernel(code: BlockCode) -> np.ndarray:
    """Marginal stochastic encoder f(x^n | m1, m2), averaging out (w1, w2)."""
    if code.side != "wiretap":
        raise ValueError("encoder_kernel is for wiretap codes")
    if code.codebook is None:
        return code.encoder_table.copy()
    cb = code.codebook
    xf = _seq_index(cb.outer.reshape(-1, cb.n), cb.x_size)
    out = np.zeros((cb.m1_size, cb.m2_size, cb.x_size**cb.n))
    w = 1.0 / (cb.w1_size * cb.w2_size)
    flat = xf.reshape(cb.m1_size, cb.w1_size, cb.m2_size, cb.w2_size)
    for m1 in range(cb.m1_size):
        for m2 in range(cb.m2_size):
            np.add.at(out[m1, m2], flat[m1, :, m2, :].ravel(), w)
    return out


def typicality_decode(
    code: BlockCode, y_seq: Sequence[int], receiver: int, eps: float | None = None
) -> int:
    """Reference (scalar) unique-tuple decoder; failure decodes to 0.

    For receiver 1 on informed codes, ``y_seq`` holds (y1, z) pair letters
    encoded as y1 * |Z| + z.
    """
    if code.codebook is None or code.ref1 is None:
        raise ValueError("typicality decoding needs a codebook-backed code")
    eps = code.eps if eps is None else float(eps)
    y = np.asarray(y_seq, dtype=np.int64)
    if y.shape != (code.n,):
        raise ShapeError(f"observation must have length {code.n}")
    cb = code.codebook
    if receiver == 1:
        cands, labels = _receiver1_candidates(cb)
        ref = FinitePmf(code.ref1.reshape(-1))
        base_o = code.obs1_size
    elif receiver == 2:
        cands, labels = _receiver2_candidates(cb)
        ref = FinitePmf(code.ref2.reshape(-1))
        base_o = code.y2_size
    else:
        raise ValueError("receiver must be 1 or 2")
    if y.max() >= base_o or y.min() < 0:
        raise ValueError("observation letter outside the alphabet")
    hits = []
    for c, lab in zip(cands, labels):
        triple = c * base_o + y
        if is_typical(triple, ref, eps):
            hits.append(int(lab))
    return hits[0] if len(hits) == 1 else 0


# ---------------------------------------------------------------------------
# induced joints
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ExactRun:
    """Every run of one code as weight(m, x^n, z^n) x kernel(x^n -> y1^n, y2^n, z^n).

    m is the flat (m1, m2) message index.  ``law`` is the per-letter
    kernel over (x, y1, y2, z), whose n-letter power is the run's kernel;
    ``live`` marks the (m, x^n) rows that carry a nonzero branch, and
    ``dec1`` gives mh1 per (flat y1^n, flat z^n).
    """

    code: BlockCode
    weight: np.ndarray  # (m, x^n, z^n)
    law: np.ndarray
    live: np.ndarray  # (m, x^n) bool
    dec1: np.ndarray  # (y1^n, z^n)


class InducedJoint:
    """Distribution induced by one code run, with provenance.

    An exact joint holds its run (``run``, from ``induced_joint``): every
    metric reads its marginal from the run's branch weights and the
    channel power of the codewords in use, and the full (m1, m2, x1..,
    y1_1.., y2_1.., z1..) joint is built on first access to ``joint`` and
    kept.  Monte Carlo holds the (m1, m2, mh1, mh2, z1..) view and no run,
    and so does any joint passed in: metrics marginalize it.  The message
    marginal is exactly uniform in exact mode only.
    """

    __slots__ = ("_joint", "side", "n", "mode", "trials", "provenance", "run")

    def __init__(
        self,
        joint: JointPmf | None,
        side: str,
        n: int,
        mode: str,
        trials: int | None,
        provenance: dict,
        run: _ExactRun | None = None,
    ) -> None:
        if joint is None and run is None:
            raise ValueError("an induced joint needs a joint or an exact run")
        for name, value in zip(self.__slots__, (joint, side, n, mode, trials, provenance, run)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("InducedJoint is immutable")

    @property
    def joint(self) -> JointPmf:
        if self._joint is None:
            object.__setattr__(self, "_joint", _exact_joint(self.run))
        return self._joint

    @property
    def z_axes(self) -> tuple[str, ...]:
        return tuple(f"z{i + 1}" for i in range(self.n))


def _check_cells(what: str, cells: int, budget: int) -> None:
    if cells > budget:
        raise ResourceError(f"{what} needs {cells} cells, budget is {budget}")


def _full_axes(code: BlockCode) -> list[Axis]:
    n = code.n
    axes = [Axis("m1", code.m1_size), Axis("m2", code.m2_size)]
    axes += [Axis(f"x{i + 1}", code.x_size) for i in range(n)]
    axes += [Axis(f"y1_{i + 1}", code.y1_size) for i in range(n)]
    axes += [Axis(f"y2_{i + 1}", code.y2_size) for i in range(n)]
    axes += [Axis(f"z{i + 1}", code.z_size) for i in range(n)]
    return axes


def _obs1_index_table(code: BlockCode, n: int) -> np.ndarray:
    """Flat receiver-1 observation index per (y1-seq, z-seq) pair."""
    y1f = code.y1_size**n
    zf = code.z_size**n
    if not code.informed:
        return np.broadcast_to(np.arange(y1f)[:, None], (y1f, zf))
    dy = _seq_digits(np.arange(y1f), code.y1_size, n)  # (y1f, n)
    dz = _seq_digits(np.arange(zf), code.z_size, n)  # (zf, n)
    pair = dy[:, None, :] * code.z_size + dz[None, :, :]
    return _seq_index(pair.reshape(-1, n), code.obs1_size).reshape(y1f, zf)


def _exact_run(code: BlockCode, model: WiretapModel | GpModel, budget: int) -> _ExactRun:
    """The exact run of ``code``; ``budget`` caps the cells of its full joint.

    The wiretap weight is unif x the encoder kernel, the same for every
    z^n (a broadcast view), and the kernel is the n-letter power of the
    channel law.  The GP weight is (unif x q_Z^n) x the encoder table, and
    the kernel is the power of the state-dependent law with z moved last.
    """
    n = code.n
    m = code.m1_size * code.m2_size
    xf, y1f, y2f, zf = (s**n for s in (code.x_size, code.y1_size, code.y2_size, code.z_size))
    _check_cells("exact joint", m * xf * y1f * y2f * zf, budget)
    unif = 1.0 / m
    if code.side == "gp":
        base = unif * _seq_power(model.state_dist.mass, n)  # (zf,)
        weight = np.moveaxis(base[:, None] * code.encoder_table, 2, 3).reshape(m, xf, zf)
        law = np.moveaxis(model.law, 1, -1)
    else:
        weight = np.broadcast_to((unif * encoder_kernel(code)).reshape(m, xf, 1), (m, xf, zf))
        law = model.law
    return _ExactRun(code, weight, law, weight.any(axis=2), code.dec1[_obs1_index_table(code, n)])


def _weighted_row(run: _ExactRun, i: int) -> np.ndarray:
    """Flat row i = (m, x^n) of the run's full joint.

    Each cell is one product: the n-letter power cell of x^n, taken over
    that row only, times the row's weight at that cell's z^n.
    """
    xf, zf = run.weight.shape[1:]
    mi, xr = divmod(i, xf)
    power = _seq_power_rows(run.law, run.code.n, np.array([xr])).reshape(-1, zf)
    return (power * run.weight[mi, xr]).reshape(-1)


def _exact_joint(run: _ExactRun) -> JointPmf:
    """The full joint of an exact run, the reference every exact metric is tested against.

    Only the rows of nonzero branches are written, which leaves the pages
    of the other rows untouched, and the joint adopts the array instead of
    copying it, so those pages stay unmapped.
    """
    out = np.zeros((run.live.size, math.prod(run.law.shape[1:]) ** run.code.n))
    for i in np.flatnonzero(run.live).tolist():
        out[i] = _weighted_row(run, i)
    return JointPmf._adopt(_full_axes(run.code), out)


def _run_marginal(
    run: _ExactRun, y1: bool, y2: bool, x: bool = False, z: bool = True
) -> np.ndarray:
    """The (m, [x^n,] y^n[, z^n]) marginal of an exact run, each sequence axis flat.

    y^n is the flat (y1^n, y2^n) pair, with the receivers ``y1`` and
    ``y2`` say to keep, and one cell when neither is kept.  The law is
    summed over the dropped outputs before its power is taken over the
    x^n rows of nonzero branches, ``_POWER_CELLS`` cells or one row at a
    time.  Each row is weighted per z^n by the messages that send it,
    summed over z^n unless ``z`` and added over x^n unless ``x``.  The
    full joint is never built.
    """
    law = run.law.sum(axis=tuple(a for a, keep in ((1, y1), (2, y2)) if not keep))
    m, xf, zf = run.weight.shape
    ycells = math.prod(law.shape[1:-1]) ** run.code.n
    out = np.zeros((m,) + (xf,) * x + (ycells,) + (zf,) * z)
    rows = np.flatnonzero(run.live.any(axis=0))
    step = max(1, _POWER_CELLS // (ycells * zf))
    for g in range(0, rows.size, step):
        power = _seq_power_rows(law, run.code.n, rows[g : g + step]).reshape(-1, ycells, zf)
        for p, xr in zip(power, rows[g : g + step].tolist()):
            for mi in np.flatnonzero(run.live[:, xr]).tolist():
                part = p * run.weight[mi, xr]
                cell = out[mi, xr] if x else out[mi]
                cell += part if z else part.sum(axis=1)
    return out


def _joint_blocks(run: _ExactRun, starts: list[int], block: int, row_cells: int):
    """Yield the full joint's flat cells [s, s + block) for each s in ``starts``, in order.

    A row of the joint is one (m, x^n) pair's ``row_cells`` cells.  One
    buffer is reused for every block, and only the rows of nonzero
    branches are written into it, each cell bitwise the one
    ``_exact_joint`` writes, wherever in a row or message block the block
    starts.
    """
    cells = run.live.size * row_cells
    live = np.flatnonzero(run.live)
    buf = np.empty(min(block, cells))
    key = None
    for s in starts:
        e = min(s + block, cells)
        out = buf[: e - s]
        out.fill(0.0)
        first, last = np.searchsorted(live, [s // row_cells, (e - 1) // row_cells + 1])
        for i in live[first:last].tolist():
            if i != key:  # a row that spans blocks is built once
                key, row = i, _weighted_row(run, i)
            lo, hi = max(s, i * row_cells), min(e, (i + 1) * row_cells)
            out[lo - s : hi - s] = row[lo - i * row_cells : hi - i * row_cells]
        yield out


def _estimate_view(ij: InducedJoint, with_z: bool) -> JointPmf:
    """The (m1, m2, mh1, mh2) marginal, with z^n last when ``with_z``.

    These are the only views that read estimates.  A Monte Carlo joint,
    like any joint passed in, carries the estimate axes already.  An exact
    run takes its (m, y1^n, y2^n, z^n) marginal from ``_run_marginal``,
    without z^n when neither the view nor receiver 1 reads it, and moves
    each cell of a message block to the estimates its decode maps give,
    in one weighted ``bincount`` per block.
    """
    names = ["m1", "m2", "mh1", "mh2", *(ij.z_axes if with_z else ())]
    run = ij.run
    if run is None:
        return ij.joint.marginalize(names).reordered(names)
    code = run.code
    m1s, m2s = code.m1_size, code.m2_size
    zf = run.dec1.shape[1]
    kept = zf if with_z else 1
    read_z = with_z or code.informed
    # flat (mh1, mh2[, z^n]) cell per (y1^n, y2^n[, z^n])
    dec1 = run.dec1 if read_z else run.dec1[:, :1]
    est = (dec1[:, None, :] * m2s + code.dec2[:, None]) * kept + (np.arange(zf) if with_z else 0)
    marg = _run_marginal(run, y1=True, y2=True, z=read_z).reshape(m1s * m2s, -1)
    view = np.stack([np.bincount(est.reshape(-1), weights=b, minlength=m1s * m2s * kept) for b in marg])
    return JointPmf._adopt(_secrecy_axes(m1s, m2s, code.z_size, ij.n if with_z else 0), view)


def _message_state(ij: InducedJoint) -> JointPmf:
    """The (m1, m2, z^n) marginal; an exact run reads it from the z-only channel power."""
    names = ["m1", "m2", *ij.z_axes]
    if ij.run is None:
        return ij.joint.marginalize(names).reordered(names)
    code = ij.run.code
    axes = _secrecy_axes(code.m1_size, code.m2_size, code.z_size, ij.n)
    return JointPmf._adopt(axes[:2] + axes[4:], _run_marginal(ij.run, y1=False, y2=False))


def _secrecy_axes(m1s: int, m2s: int, zs: int, n: int) -> list[Axis]:
    axes = [Axis("m1", m1s), Axis("m2", m2s), Axis("mh1", m1s), Axis("mh2", m2s)]
    return axes + [Axis(f"z{i + 1}", zs) for i in range(n)]


def _trial_block_rng(
    seed: int, block: int, rng: np.random.Generator | None = None
) -> np.random.Generator:
    """Trial block ``block``'s generator: Philox keyed by ``seed``, its
    counter at block * 2**40 and its buffers empty, as a fresh Philox
    advanced by that much would be.  ``rng``, a Philox generator, is moved
    there instead of building a new one.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"Monte Carlo seed must be in [0, 2**64), got {seed}")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    c = block << 40
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([c % 2**64, c >> 64, 0, 0], dtype=np.uint64),
                  "key": np.array([seed, 0], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _skip_uniforms(rng: np.random.Generator, d: int) -> None:
    """Move ``rng`` past ``d`` uniform doubles, d a multiple of 4, without drawing them.

    Each double takes one 64-bit Philox output and each counter step makes
    four.  Advancing empties the output buffer, so when it held unread
    outputs the counter stops one step short and the step that refills
    the buffer is drawn, leaving the buffer where d draws would leave it.
    """
    bg = rng.bit_generator
    pos = bg.state["buffer_pos"]
    if pos < 4:
        bg.advance(d // 4 - 1)
        bg.random_raw(pos)
    else:
        bg.advance(d // 4)


def _word_thresholds(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer thresholds of cumulative rows, for ``_letter_draws``.

    ``Generator.random`` turns a 64-bit word w into u = (w >> 11) * 2**-53,
    so u > c holds exactly when the integer w >> 11 exceeds f = floor(c *
    2**53) (the product is exact), that is when w > (f << 11) | 0x7ff.  An
    f of 2**53 - 1 or more gives 2**64 - 1, which no word exceeds.  The
    compared columns cum[:, :-1] are kept as (columns, rows) thresholds,
    one per run of equal columns, with each run's length; the columns no
    word exceeds are dropped.
    """
    f = np.minimum(np.floor(np.asarray(cum, dtype=np.float64)[:, :-1] * 2.0**53), 2.0**53 - 1)
    t = ((f.astype(np.uint64) << np.uint64(11)) | np.uint64(0x7FF)).T
    first = np.ones(len(t), dtype=bool)
    first[1:] = (t[1:] != t[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    steps = np.diff(np.r_[starts, len(t)])
    live = (t[starts] != np.iinfo(np.uint64).max).any(axis=1)
    return np.ascontiguousarray(t[starts[live]]), steps[live]


def _letter_draws(thresholds: tuple[np.ndarray, np.ndarray], rows, words: np.ndarray):
    """Inverse-CDF letters of raw Philox words: per entry, how many of the
    compared thresholds of its row the word exceeds.

    ``thresholds`` is ``_word_thresholds(cum)`` of cumulative pmf rows and
    ``rows`` (an index array, or a scalar row for every entry) picks one
    per word in ``words``, so each letter is the number of columns of
    cum[row, :-1] below the word's uniform (w >> 11) * 2**-53.  The last
    column is never compared, so a uniform above a row's rounded total
    still gives its last letter.  One run of equal threshold columns at a
    time, with no (entries, columns) gather, into the narrowest unsigned
    counter that holds the column count.
    """
    t, steps = thresholds
    out = np.zeros(np.shape(words), dtype=np.min_scalar_type(int(steps.sum())))
    for col, step in zip(t, steps):
        hit = (words > col.take(rows)).view(np.uint8)
        out += hit if step == 1 else hit * out.dtype.type(step)
    return out


def _mc_draws(
    code: BlockCode,
    model: WiretapModel | GpModel,
    t0: int,
    t1: int,
    seed: int,
):
    """Yield (m1, m2, mh1, mh2, flat z^n) index arrays for trials [t0, t1), in order.

    Trial block b (MC_BLOCK trials) draws from its own Philox counter range
    (``_trial_block_rng``, one generator moved from block to block), so
    the stream does not depend on how callers partition the trial range.
    Every block draws, in this order, the integers m1, m2, w1, w2 and the
    raw 64-bit words ux (one per trial, the encoder-table row), uz (n per
    trial, the GP state letters) and uch (n per trial, the channel
    letters).  Each word is the one ``Generator.random`` would turn into a
    uniform, and ``_letter_draws`` reads from it the letter that uniform
    picks.  A path that does not read ux or uz skips it by counter
    arithmetic, which leaves uch as it would be.
    """
    n = code.n
    cb = code.codebook
    gp = code.side == "gp"
    zs, y2s = code.z_size, code.y2_size
    law = model.law  # wiretap (x, y1, y2, z), GP (x, z, y1, y2)
    thr_ch = _word_thresholds(np.cumsum(law.reshape(math.prod(law.shape[: 1 + gp]), -1), axis=1))
    if cb is None:
        xf = code.x_size**n
        thr_enc = _word_thresholds(np.cumsum(code.encoder_table, axis=-1).reshape(-1, xf))
    else:
        codewords = cb.outer.reshape(-1, n)
    if gp:
        thr_state = _word_thresholds(np.cumsum(model.state_dist.mass)[None])
    z_pow = _seq_powers(zs, n)
    obs_pow = _seq_powers(code.obs1_size, n)
    y2_pow = _seq_powers(y2s, n)
    rng = None
    for b0 in range(t0 // MC_BLOCK, (t1 - 1) // MC_BLOCK + 1):
        lo = max(t0, b0 * MC_BLOCK) - b0 * MC_BLOCK
        hi = min(t1, (b0 + 1) * MC_BLOCK) - b0 * MC_BLOCK
        if hi <= lo:
            continue
        rng = _trial_block_rng(seed, b0, rng)
        m1 = rng.integers(0, code.m1_size, MC_BLOCK)[lo:hi]
        m2 = rng.integers(0, code.m2_size, MC_BLOCK)[lo:hi]
        w1 = rng.integers(0, 1 if cb is None else cb.w1_size, MC_BLOCK)[lo:hi]
        w2 = rng.integers(0, 1 if cb is None else cb.w2_size, MC_BLOCK)[lo:hi]
        if cb is not None:
            _skip_uniforms(rng, MC_BLOCK * (n + 1))
            flat = ((m1 * cb.w1_size + w1) * cb.m2_size + m2) * cb.w2_size + w2
            xl = codewords.take(flat, axis=0)  # (b, n) letters
        else:
            ux = rng.bit_generator.random_raw(MC_BLOCK)[lo:hi]
            row = m1 * code.m2_size + m2
            if gp:
                uz = rng.bit_generator.random_raw((MC_BLOCK, n))[lo:hi]
                zl = _letter_draws(thr_state, 0, uz)
                row = row * zs**n + zl @ z_pow
            else:
                _skip_uniforms(rng, MC_BLOCK * n)
            xl = _seq_digits(_letter_draws(thr_enc, row, ux), code.x_size, n)
        uch = rng.bit_generator.random_raw((MC_BLOCK, n))[lo:hi]
        # a channel cell is (y1 * |Y2| + y2) * |Z| + z on the wiretap side
        # and y1 * |Y2| + y2 on the GP side, where the state drew z; the
        # remainders are taken as c - (c // d) * d, which is faster on bytes
        if gp:
            y12 = _letter_draws(thr_ch, xl * zs + zl, uch)
        else:
            cell = _letter_draws(thr_ch, xl, uch)
            y12 = cell // zs
            zl = cell - y12 * zs
        y1l = y12 // y2s
        # a (y1, z) pair index can pass 255, so it is formed in int64
        obs = y1l.astype(np.int64) * zs + zl if code.informed else y1l
        if y2s > 1:
            mh2 = code.dec2[(y12 - y1l * y2s) @ y2_pow]
        else:  # one y2 sequence
            mh2 = np.full(hi - lo, code.dec2[0])
        yield m1, m2, code.dec1[obs @ obs_pow], mh2, zl @ z_pow


def _mc_batches(
    code: BlockCode,
    model: WiretapModel | GpModel,
    edges: Sequence[int],
    seed: int,
    views: Sequence[tuple[str, ...]],
):
    """Yield, batch by batch, the counts of trials [edges[i], edges[i + 1]) over each view.

    A view names its axes from (m1, m2, mh1, mh2, z), where z is the flat
    z^n index; every view counts the same draws, so a view that drops
    axes is the marginal of one that keeps them.  The trial range is
    walked once: a trial block that straddles a batch edge is drawn once
    and its trials are split between the two batches.
    """
    m1s, m2s = code.m1_size, code.m2_size
    sizes = {"m1": m1s, "m2": m2s, "mh1": m1s, "mh2": m2s, "z": code.z_size**code.n}
    draws = _mc_draws(code, model, edges[0], edges[-1], seed)
    draw: tuple = ()
    t = edges[0]
    for end in edges[1:]:
        counts = [np.zeros([sizes[a] for a in view], dtype=np.int64) for view in views]
        while t < end:
            if not draw or not draw[0].size:
                draw = next(draws)
            take = min(end - t, draw[0].size)
            idx = dict(zip(("m1", "m2", "mh1", "mh2", "z"), (a[:take] for a in draw)))
            draw = tuple(a[take:] for a in draw)
            t += take
            for count, view in zip(counts, views):
                flat = idx[view[0]]
                for a in view[1:]:
                    flat = flat * sizes[a] + idx[a]
                count += np.bincount(flat, minlength=count.size).reshape(count.shape)
        yield counts


def _mc_counts(
    code: BlockCode,
    model: WiretapModel | GpModel,
    t0: int,
    t1: int,
    seed: int,
    views: Sequence[tuple[str, ...]],
) -> list[np.ndarray]:
    """Trial counts of trials [t0, t1) over each requested view (see ``_mc_batches``)."""
    return next(_mc_batches(code, model, (t0, t1), seed, views))


def induced_joint(
    code: BlockCode,
    model: WiretapModel | GpModel,
    mode: str = "exact",
    trials: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> InducedJoint:
    """Joint distribution of one code run on ``model``.

    Exact mode holds the run of every branch and channel sequence, whose
    (messages, x^n, y1^n, y2^n, z^n) joint is built only when ``joint`` is
    read; Monte Carlo estimates the (messages, estimates, z^n) view from
    ``trials`` samples.  ``budget`` caps the cells of the full joint or of
    the view, checked before anything is allocated.
    """
    if code.side == "wiretap" and not isinstance(model, WiretapModel):
        raise ShapeError("wiretap code needs a WiretapModel")
    if code.side == "gp" and not isinstance(model, GpModel):
        raise ShapeError("gp code needs a GpModel")
    if (
        code.x_size != model.x_size
        or code.y1_size != model.y1_size
        or code.y2_size != model.y2_size
        or code.z_size != model.z_size
    ):
        raise ShapeError("code and model alphabets do not match")
    n = code.n
    if mode == "exact":
        return InducedJoint(
            joint=None,
            side=code.side,
            n=n,
            mode="exact",
            trials=None,
            provenance={"budget": budget, "code_seed": code.meta.get("seed")},
            run=_exact_run(code, model, budget),
        )
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if not trials or trials < 1:
        raise ValueError("mc mode needs a positive trial count")
    axes = _secrecy_axes(code.m1_size, code.m2_size, code.z_size, n)
    _check_cells("Monte Carlo view", math.prod(ax.size for ax in axes), budget)
    (counts,) = _mc_counts(code, model, 0, int(trials), seed, [("m1", "m2", "mh1", "mh2", "z")])
    mass = (counts / float(trials)).reshape([ax.size for ax in axes])
    return InducedJoint(
        joint=JointPmf._adopt(axes, mass),
        side=code.side,
        n=n,
        mode="mc",
        trials=int(trials),
        provenance={
            "seed": int(seed),
            "rng": f"philox-block{MC_BLOCK}",
            "code_seed": code.meta.get("seed"),
        },
    )


# ---------------------------------------------------------------------------
# metrics on induced joints
# ---------------------------------------------------------------------------


def _message_target(view: JointPmf, q_z: FinitePmf | None) -> JointPmf:
    """unif(m1, m2) x 1{mh = m} x q_z^n over the axes of an estimate view."""
    m1s, m2s = view.axis_size("m1"), view.axis_size("m2")
    if q_z is None:
        qzn, axes = np.ones(1), _secrecy_axes(m1s, m2s, 1, 0)
    else:
        if q_z.alphabet_size != view.axis_size("z1"):
            raise ShapeError("q_z alphabet does not match the induced joint")
        n = len(view.axes) - 4
        qzn, axes = _seq_power(q_z.mass, n), _secrecy_axes(m1s, m2s, q_z.alphabet_size, n)
    mass = np.zeros((m1s, m2s, m1s, m2s, qzn.size))
    unif = 1.0 / (m1s * m2s)
    for a in range(m1s):
        for b in range(m2s):
            mass[a, b, a, b] = unif * qzn
    return JointPmf._adopt(axes, mass)


def _error_terms(ij: InducedJoint) -> tuple[float, JointPmf]:
    """Unclipped P_e and the (m1, m2, mh1, mh2) marginal it is read from."""
    marg = _estimate_view(ij, with_z=False)
    return 1.0 - float(np.einsum("abab->", marg.mass)), marg


def error_probability(ij: InducedJoint) -> float:
    """P[(mh1, mh2) != (m1, m2)] under the induced joint.

    For exact joints this equals the total variation to the
    uniform-and-correct target; a larger gap than 1e-12 raises
    NumericalError.
    """
    pe, marg = _error_terms(ij)
    pe = min(max(pe, 0.0), 1.0)
    if ij.mode == "exact":
        tv = total_variation(marg, _message_target(marg, None))
        if not abs(pe - tv) <= 1e-12:
            raise NumericalError(
                f"error probability {pe!r} and total variation {tv!r} differ "
                f"by {abs(pe - tv)!r}, tolerance 1e-12"
            )
    return pe


def tv_to_target(ij: InducedJoint, q_z: FinitePmf) -> float:
    """TV between the (messages, estimates, z^n) view and its ideal."""
    view = _estimate_view(ij, with_z=True)
    return total_variation(view, _message_target(view, q_z))


def message_state_tv(ij: InducedJoint, q_z: FinitePmf) -> float:
    """TV between the (messages, z^n) marginal and unif x q_z^n."""
    marg = _message_state(ij)
    qzn = _seq_power(q_z.mass, ij.n)
    unif = 1.0 / (marg.axis_size("m1") * marg.axis_size("m2"))
    mass = unif * np.broadcast_to(
        qzn.reshape((1, 1) + (q_z.alphabet_size,) * ij.n),
        marg.mass.shape,
    )
    target = JointPmf(marg.axes, mass)
    return total_variation(marg, target)


@dataclasses.dataclass(frozen=True)
class SecrecyReport:
    leakage: float  # I(M1, M2; Z^n)
    stealth: float  # D(P_{Z^n} || q_z^n)
    total: float  # D(P_{M, Z^n} || unif x q_z^n)
    message_divergence: float  # D(P_M || unif); zero for exact joints

    @property
    def finite(self) -> bool:
        return math.isfinite(self.total)


def effective_secrecy(ij: InducedJoint, q_z: FinitePmf) -> SecrecyReport:
    """Leakage + stealth decomposition of the effective-secrecy divergence.

    total = leakage + stealth + D(P_M || unif) holds exactly; the last
    term vanishes under exact enumeration.  An unabsolutely-continuous
    z-marginal yields the distinguished infinity.
    """
    marg = _message_state(ij)
    leakage = mutual_information(marg, {"m1", "m2"}, set(ij.z_axes))
    z_marg = marg.marginalize(ij.z_axes).reordered(ij.z_axes)
    if q_z.alphabet_size != z_marg.axes[0].size:
        raise ShapeError("q_z alphabet does not match the induced joint")
    qzn_mass = _seq_power(q_z.mass, ij.n).reshape(z_marg.mass.shape)
    stealth = relative_entropy(z_marg, JointPmf(z_marg.axes, qzn_mass))
    m_marg = marg.marginalize(["m1", "m2"]).reordered(["m1", "m2"])
    unif = JointPmf(m_marg.axes, np.full(m_marg.mass.shape, 1.0 / m_marg.mass.size))
    message_div = relative_entropy(m_marg, unif)
    unif_q = np.multiply.outer(unif.mass, qzn_mass).reshape(marg.mass.shape)
    total = relative_entropy(marg, JointPmf(marg.axes, unif_q))
    residual = abs(total - (leakage + stealth + message_div))
    if math.isfinite(total) and not residual <= 1e-10:
        raise NumericalError(
            f"effective secrecy {total!r} differs from leakage + stealth + "
            f"message divergence by {residual!r}, tolerance 1e-10"
        )
    return SecrecyReport(
        leakage=leakage,
        stealth=stealth,
        total=total,
        message_divergence=message_div,
    )


def reliability_identity_residual(ij: InducedJoint) -> float:
    """|P_e - TV((M, Mh) marginal, uniform-and-correct)|; zero when exact."""
    pe, marg = _error_terms(ij)
    return abs(pe - total_variation(marg, _message_target(marg, None)))


def secrecy_identity_residual(ij: InducedJoint, q_z: FinitePmf) -> float:
    """|total - leakage - stealth - D(P_M || unif)|; zero when all finite."""
    rep = effective_secrecy(ij, q_z)
    parts = rep.leakage + rep.stealth + rep.message_divergence
    if not math.isfinite(rep.total):
        return 0.0 if not math.isfinite(parts) else math.inf
    return abs(rep.total - parts)


# ---------------------------------------------------------------------------
# wiretap -> GP code transform and the multi-letter converse
# ---------------------------------------------------------------------------


def induce_gp_code(
    wt_code: BlockCode,
    wt_model: WiretapModel,
    q_z: FinitePmf | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[BlockCode, GpModel]:
    """GP code for the analogous model: encoder P(x^n | z^n, m), decoders kept.

    The encoder is the conditional of the wiretap code's exact induced
    joint given (messages, z^n); rows conditioned on zero-probability
    cells are uniform-filled and flagged.  Requires exact enumeration of
    the wiretap code within budget.
    """
    if wt_code.side != "wiretap":
        raise ValueError("induce_gp_code starts from a wiretap code")
    if q_z is None:
        q_z = default_state_dist(wt_model)
    gp_model = analogous_gpbc(wt_model, q_z)
    ij = induced_joint(wt_code, wt_model, mode="exact", budget=budget)
    return _gp_code_from_joint(wt_code, ij), gp_model


def _gp_code_from_joint(wt_code: BlockCode, ij: InducedJoint) -> BlockCode:
    """The induced GP code of ``wt_code`` from its exact run, through the (m, z^n, x^n) marginal."""
    n = wt_code.n
    m1s, m2s = wt_code.m1_size, wt_code.m2_size
    zf = wt_code.z_size**n
    xf = wt_code.x_size**n
    axes = _secrecy_axes(m1s, m2s, wt_code.z_size, n)
    axes = axes[:2] + axes[4:] + [Axis(f"x{i + 1}", wt_code.x_size) for i in range(n)]
    mass = _run_marginal(ij.run, y1=False, y2=False, x=True).reshape(m1s, m2s, xf, zf)
    kern = JointPmf(axes, mass.swapaxes(2, 3)).condition(["m1", "m2", *ij.z_axes])
    enc = kern.rows.reshape(m1s, m2s, zf, xf)
    filled = tuple(
        (int(c[0]), int(c[1]), int(_seq_index(np.array(c[2:]), wt_code.z_size)))
        for c in kern.filled_rows
    )
    return dataclasses.replace(
        wt_code,
        side="gp",
        codebook=None,
        ref1=None,
        ref2=None,
        encoder_table=enc,
        encoder_filled=filled,
        meta=dict(wt_code.meta),
    )


def gp_collapse_residual(
    wt_code: BlockCode,
    wt_model: WiretapModel,
    q_z: FinitePmf | None = None,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> tuple[float, float, float]:
    """(residual, full TV, collapsed TV) of the shared-kernel identity.

    The wiretap run and the induced GP run share the conditional kernel
    from (messages, z^n) onward, so the total variation between their
    full joints equals || P_{M, Z^n} - unif x q_z^n || exactly.  The full
    TV is taken over (messages, x^n, y1^n, y2^n, z^n): both codes use the
    same decoders, so adding the estimates would split every cell of both
    joints alike and leave the TV unchanged.  The wiretap run serves both
    the encoder and the TV.  Neither full joint is built whole: both are
    built side by side one ``TV_BLOCK`` of flat cells at a time, into one
    reused buffer each, and blocks that no nonzero branch of either run
    reaches are skipped, their partial sums being zero.  The blocks start
    where ``total_variation``'s do, so the full TV is bitwise that of the
    two full joints.
    """
    if wt_code.side != "wiretap":
        raise ValueError("gp_collapse_residual starts from a wiretap code")
    if q_z is None:
        q_z = default_state_dist(wt_model)
    gp_model = analogous_gpbc(wt_model, q_z)
    ij_wt = induced_joint(wt_code, wt_model, mode="exact", budget=budget)
    gp_code = _gp_code_from_joint(wt_code, ij_wt)
    ij_gp = induced_joint(gp_code, gp_model, mode="exact", budget=budget)
    runs = (ij_wt.run, ij_gp.run)
    block = divergence.TV_BLOCK
    rc = (wt_code.y1_size * wt_code.y2_size * wt_code.z_size) ** wt_code.n
    touched = np.zeros(-(-ij_wt.run.live.size * rc // block), dtype=bool)
    for run in runs:
        for i in np.flatnonzero(run.live).tolist():
            touched[i * rc // block : ((i + 1) * rc - 1) // block + 1] = True
    starts = (np.flatnonzero(touched) * block).tolist()
    wt_blocks, gp_blocks = (_joint_blocks(run, starts, block, rc) for run in runs)
    # the difference goes into the wiretap buffer, which the next block refills
    full = blocked_total_variation((a, b, a) for a, b in zip(wt_blocks, gp_blocks))
    collapsed = message_state_tv(ij_wt, q_z)
    return abs(full - collapsed), full, collapsed


def random_gp_code(
    model: GpModel, n: int, m1_size: int, seed: int
) -> BlockCode:
    """Random point-to-point GP code: Dirichlet encoder rows, random decoder."""
    if not model.point_to_point:
        raise ValueError("random_gp_code builds point-to-point codes")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(2,)))
    zf = model.z_size**n
    xf = model.x_size**n
    enc = rng.dirichlet(np.ones(xf), size=(m1_size, 1, zf))
    obs1 = (model.y1_size * model.z_size if model.informed_receiver else model.y1_size) ** n
    dec1 = rng.integers(0, m1_size, obs1)
    dec2 = np.zeros(model.y2_size**n, dtype=np.int64)
    return BlockCode(
        side="gp",
        n=n,
        m1_size=m1_size,
        m2_size=1,
        rates=CodeRates(r1=math.log2(m1_size) / n),
        informed=model.informed_receiver,
        u_size=1,
        x_size=model.x_size,
        y1_size=model.y1_size,
        y2_size=model.y2_size,
        z_size=model.z_size,
        eps=None,
        dec1=dec1,
        dec2=dec2,
        encoder_table=enc,
        meta={"seed": int(seed)},
    )


@dataclasses.dataclass(frozen=True)
class ConverseGapReport:
    gap: float
    rate: float
    error_probability: float
    eps_n: float
    per_letter_terms: tuple[float, ...]


def multiletter_converse_gap(
    gp_code: BlockCode, gp_model: GpModel, budget: int = DEFAULT_ENUM_BUDGET
) -> ConverseGapReport:
    """Finite-n converse slack for a point-to-point GP code.

    gap = (1/n) sum_i [I(U_i; Y_i) - I(U_i; Z_i)] + eps_n - R with
    U_i = (M, Y^{i-1}, Z_{i+1}^n) and eps_n = 1/n + R * P_e; informed
    models use the (y1, z) pair as the per-letter decoder observation.
    Nonnegative for every exactly-enumerated code.
    """
    if gp_code.side != "gp":
        raise ValueError("multiletter_converse_gap needs a gp-side code")
    if gp_code.m2_size != 1:
        raise ValueError("the converse applies to point-to-point codes")
    ij = induced_joint(gp_code, gp_model, mode="exact", budget=budget)
    pe = error_probability(ij)
    n = gp_code.n
    rate = math.log2(gp_code.m1_size) / n
    y_axes = [f"y1_{i + 1}" for i in range(n)]
    z_axes = list(ij.z_axes)
    axes = [Axis("m1", gp_code.m1_size)]
    axes += [Axis(a, gp_code.y1_size) for a in y_axes] + [Axis(a, gp_code.z_size) for a in z_axes]
    marg = JointPmf._adopt(axes, _run_marginal(ij.run, y1=True, y2=False))
    informed = gp_code.informed
    terms = []
    for i in range(n):
        if informed:
            obs_i = {y_axes[i], z_axes[i]}
            past = set(y_axes[:i]) | set(z_axes[:i])
        else:
            obs_i = {y_axes[i]}
            past = set(y_axes[:i])
        u_axes = {"m1"} | past | set(z_axes[i + 1 :])
        term = mutual_information(marg, u_axes, obs_i) - mutual_information(
            marg, u_axes, {z_axes[i]}
        )
        terms.append(term)
    eps_n = 1.0 / n + rate * pe
    gap = sum(terms) / n + eps_n - rate
    return ConverseGapReport(
        gap=float(gap),
        rate=rate,
        error_probability=pe,
        eps_n=eps_n,
        per_letter_terms=tuple(float(t) for t in terms),
    )


# ---------------------------------------------------------------------------
# Monte Carlo trend runs
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SimParams:
    n_list: tuple[int, ...] = (2, 4, 6, 8)
    eps: float = 0.2
    trials: int = 100_000
    batches: int = 10
    seed: int = 0
    table_budget: int = DEFAULT_TABLE_BUDGET
    budget: int = DEFAULT_ENUM_BUDGET


def simulate_trend(
    model: WiretapModel,
    p_ux: JointPmf,
    rates: CodeRates,
    params: SimParams,
    q_z: FinitePmf | None = None,
) -> list[dict]:
    """Monte Carlo reliability and secrecy estimates across blocklengths.

    Per blocklength: sample one codebook, run ``trials`` trials split
    into ``batches`` contiguous trial ranges (the counter-based stream
    makes the split order-independent), and report each metric with the
    standard error of the batch mean.  ``params.budget`` caps the cells of
    each counted view, checked before counting.
    """
    if q_z is None:
        q_z = default_state_dist(model)
    out = []
    for n in params.n_list:
        cb = sample_codebook(p_ux, int(n), rates, params.seed)
        code = superposition_code(cb, model, params.eps, params.table_budget)
        per = params.trials // params.batches
        if per < 1:
            raise ValueError("trials must be >= batches")
        trials = per * params.batches
        axes = _secrecy_axes(code.m1_size, code.m2_size, code.z_size, int(n))
        sec_shape = [axes[0].size, axes[1].size] + [code.z_size] * int(n)
        for view in (axes[:4], axes[:2] + axes[4:]):
            _check_cells("Monte Carlo view", math.prod(ax.size for ax in view), params.budget)

        def _ij(mass_axes, counts: np.ndarray, shape, m: int) -> InducedJoint:
            return InducedJoint(
                joint=JointPmf._adopt(mass_axes, counts.reshape(shape) / float(m)),
                side="wiretap",
                n=int(n),
                mode="mc",
                trials=m,
                provenance={"seed": params.seed},
            )

        # the two marginal views carry every trend metric and stay small
        # even when the message set is large; counts sum exactly across
        # batches because the trial stream is counter-based
        rel_total = None
        sec_total = None
        pe_batches = []
        sec_batches = []
        for rel, sec in _mc_batches(
            code, model, range(0, trials + 1, per), params.seed,
            [("m1", "m2", "mh1", "mh2"), ("m1", "m2", "z")],
        ):
            pe_batches.append(error_probability(_ij(axes[:4], rel, rel.shape, per)))
            sec_batches.append(
                effective_secrecy(_ij(axes[:2] + axes[4:], sec, sec_shape, per), q_z).total
            )
            rel_total = rel if rel_total is None else rel_total + rel
            sec_total = sec if sec_total is None else sec_total + sec
        ij_rel = _ij(axes[:4], rel_total, rel_total.shape, trials)
        ij_sec = _ij(axes[:2] + axes[4:], sec_total, sec_shape, trials)
        k = params.batches
        pe_se = float(np.std(pe_batches, ddof=1) / math.sqrt(k))
        sec_se = float(np.std(sec_batches, ddof=1) / math.sqrt(k))
        sec = effective_secrecy(ij_sec, q_z)
        out.append(
            {
                "n": int(n),
                "trials": trials,
                "error_probability": error_probability(ij_rel),
                "error_probability_se": pe_se,
                "effective_secrecy": sec.total,
                "effective_secrecy_se": sec_se,
                "leakage": sec.leakage,
                "stealth": sec.stealth,
                "message_state_tv": message_state_tv(ij_sec, q_z),
                "message_sizes": [code.m1_size, code.m2_size],
                "seed": params.seed,
            }
        )
    return out
