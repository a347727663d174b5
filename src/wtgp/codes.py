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

``induced_joint`` materializes the joint of one code run, either by
exact enumeration or by Monte Carlo over a counter-based Philox stream
keyed by (seed, trial block), which makes trial blocks order-independent.
Exact enumeration is one product for both sides over (m1, m2, x^n, y1^n,
y2^n, z^n): weight(m1, m2, x^n, z^n) x kernel(x^n -> y1^n, y2^n, z^n).
A wiretap code's weight is unif x its encoder kernel and its kernel the
n-letter power of the channel law; a GP code's weight is (unif x q_Z^n) x
its encoder table and its kernel the power of the state-dependent law.
From (m, z^n) on, a wiretap code and the GP code it induces share that
kernel and the decoders.  The estimates (mh1, mh2) are functions of
(y1^n, z^n) and y2^n, so an exact run carries the decode maps instead of
estimate axes; Monte Carlo counts the (m1, m2, mh1, mh2, z^n) view.  One
``budget`` caps the cells either mode allocates.  Exact joints support
three identities used as test anchors and CLI diagnostics, and a gap
beyond rounding raises ``NumericalError``:

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
from .divergence import (
    is_typical,
    mutual_information,
    relative_entropy,
    total_variation,
)
from .errors import NumericalError, ResourceError, ShapeError
from .pmf import Axis, FinitePmf, JointPmf

DEFAULT_ENUM_BUDGET = 10**8
DEFAULT_TABLE_BUDGET = 1 << 20
MC_BLOCK = 4096
# float32 holds every integer up to 2**24 exactly
_F32_EXACT = 1 << 24


# ---------------------------------------------------------------------------
# sequence index helpers (first letter most significant, row-major)
# ---------------------------------------------------------------------------


def _seq_powers(base: int, n: int) -> np.ndarray:
    return base ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _seq_index(letters: np.ndarray, base: int) -> np.ndarray:
    letters = np.asarray(letters, dtype=np.int64)
    return letters @ _seq_powers(base, letters.shape[-1])

def _seq_digits(indices: np.ndarray, base: int, n: int) -> np.ndarray:
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


def _typical_mask(
    cand_codes: np.ndarray,  # (C, n) per-letter candidate codes
    obs_digits: np.ndarray,  # (B, n) observation letters in [0, base_o)
    base_o: int,
    ref_flat: np.ndarray,  # (candidate codes * base_o,) reference joint
    eps: float,
    n: int,
) -> np.ndarray:
    """Boolean (B, C): is (candidate, observation) jointly letter-typical.

    No letter-pair histogram is built.  The bin of position t, cand[t] *
    base_o + obs[t], is hit by every position s whose candidate letter
    and observation letter both equal those at t, so its count is one
    dot product of two equality masks.  A pair is typical when every
    position's (bin, count) passes the histogram test, tabulated once
    per count, and every bin that fails it empty occurs somewhere.
    """
    nu = np.arange(n + 1) / float(n)
    ok = ~(np.abs(nu - ref_flat[:, None]) > eps * ref_flat[:, None])  # (bins, n + 1)
    required = np.flatnonzero(~ok[:, 0])
    b, c = obs_digits.shape[0], cand_codes.shape[0]
    if required.size > n:  # n letters fill at most n bins
        return np.zeros((b, c), dtype=bool)
    # position t's product is bin * (n + 1) + count, the flat index into
    # ok: the equality masks give the count and two extra columns add the
    # observation and the candidate part of the bin; every partial sum is
    # an integer no larger than ok.size, exact in the float type chosen
    exact = np.float32 if ok.size <= _F32_EXACT else np.float64
    lhs = np.concatenate(
        [
            obs_digits[:, :, None] == obs_digits[:, None, :],
            obs_digits[:, :, None] * (n + 1),
            np.ones((b, n, 1), dtype=exact),
        ],
        axis=2,
        dtype=exact,
    )
    rhs = np.concatenate(
        [
            cand_codes[:, :, None] == cand_codes[:, None, :],
            np.ones((c, n, 1), dtype=exact),
            cand_codes[:, :, None] * (base_o * (n + 1)),
        ],
        axis=2,
        dtype=exact,
    )
    ok_flat = ok.ravel()
    mask = np.ones((b, c), dtype=bool)
    for t in range(n):
        mask &= ok_flat.take((lhs[:, t] @ rhs[:, t].T).astype(np.intp))
    for a in required:
        ca, oa = divmod(int(a), base_o)
        mask &= (obs_digits == oa).astype(exact) @ (cand_codes == ca).astype(exact).T > 0
    return mask


def _decode_all(
    cand_codes: np.ndarray,
    cand_message: np.ndarray,  # (C,) message index of each candidate
    base_o: int,
    ref_flat: np.ndarray,
    eps: float,
    n: int,
) -> np.ndarray:
    """Unique-tuple typicality decoding of every observation sequence.

    Failures decode to message 0.  Observations are taken in flat-index
    order, a chunk at a time, with (chunk, C) temporaries.
    """
    total = base_o**n
    out = np.empty(total, dtype=np.int64)
    chunk = max(1, (1 << 18) // cand_codes.shape[0])
    for i in range(0, total, chunk):
        obs = _seq_digits(np.arange(i, min(i + chunk, total)), base_o, n)
        mask = _typical_mask(cand_codes, obs, base_o, ref_flat, eps, n)
        hits = mask.sum(axis=1)
        pick = mask.argmax(axis=1)
        out[i : i + chunk] = np.where(hits == 1, cand_message[pick], 0)
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
    dec1 = _decode_all(cand1, lab1, obs1, ref1.reshape(-1), eps, n)
    dec2 = _decode_all(cand2, lab2, y2s, ref2.reshape(-1), eps, n)
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
    if np.abs(enc.sum(axis=2) - 1.0).max() > 1e-9 or (enc < 0).any():
        raise ValueError("encoder rows must be pmfs")
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
class InducedJoint:
    """Distribution induced by one code run, with provenance.

    Exact mode stores (m1, m2, x1.., y1_1.., y2_1.., z1..) and the decode
    maps beside it: ``dec1`` gives mh1 per (flat y1^n, flat z^n) and
    ``dec2`` mh2 per flat y2^n.  Monte Carlo stores the (m1, m2, mh1, mh2,
    z1..) view and no maps.  The message marginal is exactly uniform in
    exact mode only.
    """

    joint: JointPmf
    side: str
    n: int
    mode: str
    trials: int | None
    provenance: dict
    dec1: np.ndarray | None = None
    dec2: np.ndarray | None = None

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


def _exact_joint(code: BlockCode, model: WiretapModel | GpModel, budget: int) -> JointPmf:
    """Every code run as weight(m1, m2, x^n, z^n) x kernel(x^n -> y1^n, y2^n, z^n).

    The wiretap weight is unif x the encoder kernel, the same for every
    z^n, and the kernel is the n-letter power of the channel law.  The GP
    weight is (unif x q_Z^n) x the encoder table, and the kernel is the
    power of the state-dependent law with z moved last.  Only nonzero
    branches are written, which leaves the pages of the other branches
    untouched.
    """
    n = code.n
    m1s, m2s = code.m1_size, code.m2_size
    xf, y1f, y2f, zf = (s**n for s in (code.x_size, code.y1_size, code.y2_size, code.z_size))
    _check_cells("exact joint", m1s * m2s * xf * y1f * y2f * zf, budget)
    unif = 1.0 / (m1s * m2s)
    if code.side == "gp":
        base = unif * _seq_power(model.state_dist.mass, n)  # (zf,)
        weight = np.moveaxis(base[:, None] * code.encoder_table, 2, 3)
        kernel = _seq_power(np.moveaxis(model.law, 1, -1), n)
    else:
        weight = np.broadcast_to((unif * encoder_kernel(code))[..., None], (m1s, m2s, xf, zf))
        kernel = _seq_power(model.law, n)
    b1, b2, bx, bz = np.nonzero(weight)
    out = np.zeros((m1s, m2s, xf, y1f, y2f, zf))
    out[b1, b2, bx, :, :, bz] = weight[b1, b2, bx, bz][:, None, None] * kernel[bx, :, :, bz]
    return JointPmf(_full_axes(code), out)


def _estimate_view(ij: InducedJoint, with_z: bool) -> JointPmf:
    """The (m1, m2, mh1, mh2) marginal, with z^n last when ``with_z``.

    These are the only views that read estimates.  A Monte Carlo joint
    carries the estimate axes already.  An exact joint moves each cell of
    a message block to the estimates its decode maps give, in one weighted
    ``bincount`` per block over its cells in storage order, so each sum
    adds its terms in the order a marginal of a joint with explicit
    estimate axes would.
    """
    names = ["m1", "m2", "mh1", "mh2", *(ij.z_axes if with_z else ())]
    if ij.dec1 is None:
        return ij.joint.marginalize(names).reordered(names)
    j = ij.joint
    m1s, m2s = j.axis_size("m1"), j.axis_size("m2")
    zf = ij.dec1.shape[1]
    kept = zf if with_z else 1
    # flat (mh1, mh2[, z^n]) cell per (y1^n, y2^n, z^n), repeated per x^n
    est = (ij.dec1[:, None, :] * m2s + ij.dec2[:, None]) * kept + (np.arange(zf) if with_z else 0)
    blocks = j.mass.reshape(m1s * m2s, -1)
    flat = np.tile(est.reshape(-1), blocks.shape[1] // est.size)
    view = np.stack([np.bincount(flat, weights=b, minlength=m1s * m2s * kept) for b in blocks])
    return JointPmf(_secrecy_axes(m1s, m2s, j.axis_size("z1"), ij.n if with_z else 0), view)


def _secrecy_axes(m1s: int, m2s: int, zs: int, n: int) -> list[Axis]:
    axes = [Axis("m1", m1s), Axis("m2", m2s), Axis("mh1", m1s), Axis("mh2", m2s)]
    return axes + [Axis(f"z{i + 1}", zs) for i in range(n)]


def _trial_block_rng(seed: int, block: int) -> np.random.Generator:
    bg = np.random.Philox(key=np.uint64(seed & ((1 << 64) - 1)))
    bg.advance(block * (1 << 40))
    return np.random.Generator(bg)


def _mc_draws(
    code: BlockCode,
    model: WiretapModel | GpModel,
    t0: int,
    t1: int,
    seed: int,
):
    """Yield (m1, m2, mh1, mh2, flat z^n) index arrays per trial block.

    Each fixed-size block of trials draws from its own Philox counter
    range, so the stream is independent of how callers partition the
    trial range into calls.
    """
    n = code.n
    wiretap = code.side == "wiretap"
    cb = code.codebook if wiretap else None
    if wiretap:
        law_flat = model.law.reshape(model.x_size, -1)  # (x, y1*y2*z)
        cum_ch = np.cumsum(law_flat, axis=1)
    else:
        cum_state = np.cumsum(model.state_dist.mass)
        law_pair = model.law.reshape(model.x_size * model.z_size, -1)  # (xz, y1*y2)
        cum_ch = np.cumsum(law_pair, axis=1)
        enc_cum = np.cumsum(code.encoder_table, axis=-1)
    obs_pow = _seq_powers(code.obs1_size, n)
    y2_pow = _seq_powers(code.y2_size, n)
    z_pow = _seq_powers(code.z_size, n)
    for b0 in range(t0 // MC_BLOCK, (t1 - 1) // MC_BLOCK + 1):
        lo = max(t0, b0 * MC_BLOCK) - b0 * MC_BLOCK
        hi = min(t1, (b0 + 1) * MC_BLOCK) - b0 * MC_BLOCK
        rng = _trial_block_rng(seed, b0)
        # fixed draw layout per block, independent of the slice used
        m1 = rng.integers(0, code.m1_size, MC_BLOCK)
        m2 = rng.integers(0, code.m2_size, MC_BLOCK)
        w1 = rng.integers(0, cb.w1_size if wiretap and cb is not None else 1, MC_BLOCK)
        w2 = rng.integers(0, cb.w2_size if wiretap and cb is not None else 1, MC_BLOCK)
        ux = rng.random(MC_BLOCK)
        uz = rng.random((MC_BLOCK, n))
        uch = rng.random((MC_BLOCK, n))
        m1 = m1[lo:hi]
        m2 = m2[lo:hi]
        w1 = w1[lo:hi]
        w2 = w2[lo:hi]
        ux = ux[lo:hi]
        uz = uz[lo:hi]
        uch = uch[lo:hi]
        bsz = hi - lo
        if bsz <= 0:
            continue
        if wiretap:
            if cb is not None:
                xl = cb.outer[m1, w1, m2, w2]  # (b, n) letters
            else:
                rows = np.cumsum(code.encoder_table[m1, m2], axis=1)
                xfi = (ux[:, None] > rows[:, :-1]).sum(axis=1)
                xl = _seq_digits(xfi, code.x_size, n)
            # per-letter (y1, y2, z) triple via one uniform per position
            rows = cum_ch[xl]  # (b, n, K)
            trip = (uch[:, :, None] > rows[:, :, :-1]).sum(axis=2)
            y2z = trip % (code.y2_size * code.z_size)
            y1l = trip // (code.y2_size * code.z_size)
            y2l = y2z // code.z_size
            zl = y2z % code.z_size
        else:
            zl = (uz[:, :, None] > cum_state[None, None, :-1]).sum(axis=2)
            zfi = zl @ z_pow
            rows = enc_cum[m1, m2, zfi]  # (b, xf)
            xfi = (ux[:, None] > rows[:, :-1]).sum(axis=1)
            xl = _seq_digits(xfi, code.x_size, n)
            pair_idx = xl * code.z_size + zl
            rows = cum_ch[pair_idx]  # (b, n, y1*y2)
            duo = (uch[:, :, None] > rows[:, :, :-1]).sum(axis=2)
            y1l = duo // code.y2_size
            y2l = duo % code.y2_size
        if code.informed:
            obs = (y1l * code.z_size + zl) @ obs_pow
        else:
            obs = y1l @ _seq_powers(code.y1_size, n)
        mh1 = code.dec1[obs]
        mh2 = code.dec2[y2l @ y2_pow]
        zfi = zl @ z_pow
        yield m1, m2, mh1, mh2, zfi


def _mc_counts(
    code: BlockCode,
    model: WiretapModel | GpModel,
    t0: int,
    t1: int,
    seed: int,
    views: Sequence[tuple[str, ...]],
) -> list[np.ndarray]:
    """Trial counts of trials [t0, t1) over each requested view.

    A view names its axes from (m1, m2, mh1, mh2, z), where z is the flat
    z^n index; every view counts the same draws, so a view that drops
    axes is the marginal of one that keeps them.
    """
    m1s, m2s = code.m1_size, code.m2_size
    sizes = {"m1": m1s, "m2": m2s, "mh1": m1s, "mh2": m2s, "z": code.z_size**code.n}
    counts = [np.zeros([sizes[a] for a in view], dtype=np.int64) for view in views]
    for draw in _mc_draws(code, model, t0, t1, seed):
        idx = dict(zip(("m1", "m2", "mh1", "mh2", "z"), draw))
        for count, view in zip(counts, views):
            flat = idx[view[0]]
            for a in view[1:]:
                flat = flat * sizes[a] + idx[a]
            count += np.bincount(flat, minlength=count.size).reshape(count.shape)
    return counts


def induced_joint(
    code: BlockCode,
    model: WiretapModel | GpModel,
    mode: str = "exact",
    trials: int | None = None,
    seed: int = 0,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> InducedJoint:
    """Joint distribution of one code run on ``model``.

    Exact mode enumerates every branch and channel sequence into the
    (messages, x^n, y1^n, y2^n, z^n) joint and carries the decode maps
    beside it; Monte Carlo estimates the (messages, estimates, z^n) view
    from ``trials`` samples.  ``budget`` caps the cells of the joint or
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
            joint=_exact_joint(code, model, budget),
            side=code.side,
            n=n,
            mode="exact",
            trials=None,
            provenance={"budget": budget, "code_seed": code.meta.get("seed")},
            dec1=code.dec1[_obs1_index_table(code, n)],
            dec2=code.dec2,
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
        joint=JointPmf(axes, mass),
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


def _message_target(ij: InducedJoint, q_z: FinitePmf | None) -> JointPmf:
    """unif(m1, m2) x 1{mh = m} x q_z^n over the secrecy axes."""
    j = ij.joint
    m1s, m2s = j.axis_size("m1"), j.axis_size("m2")
    if q_z is None:
        qzn, axes = np.ones(1), _secrecy_axes(m1s, m2s, 1, 0)
    else:
        if q_z.alphabet_size != j.axis_size("z1"):
            raise ShapeError("q_z alphabet does not match the induced joint")
        qzn, axes = _seq_power(q_z.mass, ij.n), _secrecy_axes(m1s, m2s, q_z.alphabet_size, ij.n)
    mass = np.zeros((m1s, m2s, m1s, m2s, qzn.size))
    unif = 1.0 / (m1s * m2s)
    for a in range(m1s):
        for b in range(m2s):
            mass[a, b, a, b] = unif * qzn
    return JointPmf(axes, mass)


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
        tv = total_variation(marg, _message_target(ij, None))
        if not abs(pe - tv) <= 1e-12:
            raise NumericalError(
                f"error probability {pe!r} and total variation {tv!r} differ "
                f"by {abs(pe - tv)!r}, tolerance 1e-12"
            )
    return pe


def tv_to_target(ij: InducedJoint, q_z: FinitePmf) -> float:
    """TV between the (messages, estimates, z^n) view and its ideal."""
    return total_variation(_estimate_view(ij, with_z=True), _message_target(ij, q_z))


def message_state_tv(ij: InducedJoint, q_z: FinitePmf) -> float:
    """TV between the (messages, z^n) marginal and unif x q_z^n."""
    names = ["m1", "m2", *ij.z_axes]
    marg = ij.joint.marginalize(names).reordered(names)
    j = ij.joint
    qzn = _seq_power(q_z.mass, ij.n)
    unif = 1.0 / (j.axis_size("m1") * j.axis_size("m2"))
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
    names = ["m1", "m2", *ij.z_axes]
    marg = ij.joint.marginalize(names).reordered(names)
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
    return abs(pe - total_variation(marg, _message_target(ij, None)))


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
    """The induced GP code of ``wt_code`` from its exact induced joint."""
    n = wt_code.n
    x_axes = [f"x{i + 1}" for i in range(n)]
    names = ["m1", "m2", *ij.z_axes, *x_axes]
    marg = ij.joint.marginalize(names).reordered(names)
    kern = marg.condition(["m1", "m2", *ij.z_axes])
    zf = wt_code.z_size**n
    xf = wt_code.x_size**n
    enc = kern.rows.reshape(wt_code.m1_size, wt_code.m2_size, zf, xf)
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
    joints alike and leave the TV unchanged.  The wiretap code is
    enumerated once, for both the encoder and the TV.
    """
    if wt_code.side != "wiretap":
        raise ValueError("gp_collapse_residual starts from a wiretap code")
    if q_z is None:
        q_z = default_state_dist(wt_model)
    gp_model = analogous_gpbc(wt_model, q_z)
    ij_wt = induced_joint(wt_code, wt_model, mode="exact", budget=budget)
    gp_code = _gp_code_from_joint(wt_code, ij_wt)
    ij_gp = induced_joint(gp_code, gp_model, mode="exact", budget=budget)
    full = total_variation(ij_wt.joint, ij_gp.joint)
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
    keep = ["m1", *y_axes, *z_axes]
    marg = ij.joint.marginalize(keep)
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
                joint=JointPmf(mass_axes, counts.reshape(shape) / float(m)),
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
        for b in range(params.batches):
            rel, sec = _mc_counts(
                code, model, b * per, (b + 1) * per, params.seed,
                [("m1", "m2", "mh1", "mh2"), ("m1", "m2", "z")],
            )
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
