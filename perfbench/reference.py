"""Independent reference computations for the benchmark's output checks.

Everything here is written from the definitions with numpy alone and
imports nothing from ``wtgp``, so a check that compares a ``wtgp`` output
against one of these functions compares two separate implementations.

Conventions match the workbench's documented ones: logarithms base 2,
0 log 0 = 0, letter typicality |nu(a) - p(a)| <= eps * p(a) for every
letter a, sequence index with the first letter most significant, and a
decoder that finds no unique typical tuple decodes to message 0.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# entropies and single-letter rate bounds
# ---------------------------------------------------------------------------


def h2(p: float) -> float:
    """Binary entropy in bits."""
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def degraded_bsc_secrecy_capacity(p1: float, p2: float) -> float:
    """Secrecy capacity of BSC(p1) to the receiver and BSC(p2) to the
    eavesdropper: h(p2) - h(p1) when the eavesdropper's channel is the
    noisier one, else 0."""
    return max(h2(p2) - h2(p1), 0.0)


def entropy_bits(mass: np.ndarray) -> float:
    flat = np.asarray(mass, dtype=np.float64).ravel()
    flat = flat[flat > 0.0]
    return float(-(flat * np.log2(flat)).sum())


# axes of the single-letter joint used below
AXES = ("u", "x", "y1", "y2", "z")


def marginal_entropy(joint: np.ndarray, names: str) -> float:
    """H of the marginal on the axes named by the letters' axis names,
    given as a space-separated string such as ``"u y1 z"``."""
    keep = {AXES.index(a) for a in names.split()}
    drop = tuple(i for i in range(joint.ndim) if i not in keep)
    return entropy_bits(joint.sum(axis=drop))


def wiretap_joint(p_ux: np.ndarray, law: np.ndarray) -> np.ndarray:
    """p(u, x) law(y1, y2, z | x) over (u, x, y1, y2, z)."""
    return p_ux[:, :, None, None, None] * law[None, :, :, :, :]


def gp_joint(q_z: np.ndarray, rows: np.ndarray, law: np.ndarray) -> np.ndarray:
    """q(z) q(u, x | z) law(y1, y2 | x, z) over (u, x, y1, y2, z).

    ``rows`` is indexed (z, u, x) and ``law`` (x, z, y1, y2)."""
    zs, us, xs = rows.shape
    out = np.zeros((us, xs) + law.shape[2:] + (zs,))
    for z in range(zs):
        out[..., z] = q_z[z] * rows[z][:, :, None, None] * law[None, :, z, :, :]
    return out


def family_bounds(kind: str, joint: np.ndarray):
    """Raw (r1, r2, r_sum) of a bound family on a (u, x, y1, y2, z) joint.

    SD:    R1 <= H(Y1|Z), R2 <= I(U;Y2) - I(U;Z),
           R1 + R2 <= H(Y1|Z) + I(U;Y2) - I(U;Y1,Z)
    PD-IR: R1 <= I(X;Y1|U,Z), R2 <= I(U;Y2) - I(U;Z), no sum bound.
    """
    def H(names: str) -> float:
        return marginal_entropy(joint, names)

    i_uy2 = H("u") + H("y2") - H("u y2")
    i_uz = H("u") + H("z") - H("u z")
    r2 = i_uy2 - i_uz
    if kind == "SD":
        h_y1_given_z = H("y1 z") - H("z")
        i_u_y1z = H("u") + H("y1 z") - H("u y1 z")
        return h_y1_given_z, r2, h_y1_given_z + i_uy2 - i_u_y1z
    if kind == "PD-IR":
        r1 = H("u x z") + H("u y1 z") - H("u x y1 z") - H("u z")
        return r1, r2, None
    raise ValueError(f"unknown family kind {kind!r}")


def support_value(r1: float, r2: float, r_sum, lam1: float, lam2: float) -> float:
    """max lam1 R1 + lam2 R2 over the clamped polytope
    {0 <= R1 <= r1, 0 <= R2 <= r2, R1 + R2 <= r_sum} (a linear program
    solved by visiting its vertices)."""
    r1, r2 = max(r1, 0.0), max(r2, 0.0)
    if r_sum is None:
        return lam1 * r1 + lam2 * r2
    rs = max(r_sum, 0.0)
    # vertices of the box cut by the sum constraint
    verts = [(0.0, 0.0), (min(r1, rs), 0.0), (0.0, min(r2, rs))]
    if r1 <= rs:
        verts.append((r1, min(r2, rs - r1)))
    if r2 <= rs:
        verts.append((min(r1, rs - r2), r2))
    return max(lam1 * a + lam2 * b for a, b in verts)


def in_region(point, r1: float, r2: float, r_sum, tol: float) -> bool:
    a, b = point
    ok = -tol <= a <= max(r1, 0.0) + tol and -tol <= b <= max(r2, 0.0) + tol
    if r_sum is not None:
        ok = ok and a + b <= max(r_sum, 0.0) + tol
    return ok


def secrecy_objective(joint: np.ndarray) -> float:
    """I(U;Y1) - I(U;Z) on a (u, x, y1, y2, z) joint."""
    H = lambda names: marginal_entropy(joint, names)  # noqa: E731
    return (H("y1") - H("u y1")) - (H("z") - H("u z"))


def random_achiever_best(
    kind: str,
    law: np.ndarray,
    u_size: int,
    directions,
    rng: np.random.Generator,
    count: int,
    q_z: np.ndarray | None = None,
) -> list[float]:
    """Best support value per direction over ``count`` random auxiliaries:
    a lower bound that any maximizing search must meet.

    Without ``q_z`` the auxiliaries are Dirichlet(1) pmfs p(u, x) on the
    wiretap ``law``; with it, ``law`` is a GP law indexed (x, z, y1, y2)
    and the auxiliaries are Dirichlet(1) rows q(u, x | z)."""
    best = [-math.inf] * len(directions)
    xs = law.shape[0]
    for _ in range(count):
        if q_z is None:
            p_ux = rng.dirichlet(np.ones(u_size * xs)).reshape(u_size, xs)
            joint = wiretap_joint(p_ux, law)
        else:
            zs = law.shape[1]
            rows = rng.dirichlet(np.ones(u_size * xs), size=zs).reshape(zs, u_size, xs)
            joint = gp_joint(q_z, rows, law)
        r1, r2, rs = family_bounds(kind, joint)
        for d, (lam1, lam2) in enumerate(directions):
            best[d] = max(best[d], support_value(r1, r2, rs, lam1, lam2))
    return best


# ---------------------------------------------------------------------------
# sequences, letter-typicality decoding, exact code quantities
# ---------------------------------------------------------------------------


def seq_product(rows: np.ndarray, letters) -> np.ndarray:
    """Flat pmf over output sequences of a memoryless channel.

    ``rows[a]`` is the output pmf (flattened over the per-letter output
    alphabet) for input letter a; the result is indexed by the output
    sequence with the first letter most significant."""
    out = np.ones(1)
    for a in letters:
        out = np.outer(out, rows[a]).ravel()
    return out


def letter_typical_decode(
    cand_letters: np.ndarray,
    cand_messages: np.ndarray,
    base_c: int,
    obs_letters: np.ndarray,
    base_o: int,
    ref: np.ndarray,
    eps: float,
    tie: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique-tuple letter-typicality decoder.

    ``cand_letters`` (C, n) holds each candidate's per-letter symbol in
    [0, base_c), ``obs_letters`` (B, n) each observation's letters, and
    ``ref`` the reference pmf over pair symbols c * base_o + o.  An
    observation decodes to the message of the only candidate whose pair
    sequence is eps-letter-typical for ``ref``; with none or several it
    decodes to 0.

    Returns the decoded messages and a mask of observations for which
    some candidate sits within ``tie`` of the typicality boundary, where
    rounding in the reference pmf may decide the outcome.
    """
    n = cand_letters.shape[1]
    nsym = base_c * base_o
    ref = np.asarray(ref, dtype=np.float64).ravel()
    out = np.zeros(obs_letters.shape[0], dtype=np.int64)
    ties = np.zeros(obs_letters.shape[0], dtype=bool)
    rows = np.arange(cand_letters.shape[0])
    for b, obs in enumerate(obs_letters):
        pairs = cand_letters * base_o + obs[None, :]  # (C, n)
        counts = np.zeros((pairs.shape[0], nsym))
        for i in range(n):
            counts[rows, pairs[:, i]] += 1.0
        # typical iff every letter's slack |nu - p| - eps p is <= 0
        slack = np.abs(counts / n - ref[None, :]) - eps * ref[None, :]
        hits = np.flatnonzero((slack <= 0.0).all(axis=1))
        out[b] = int(cand_messages[hits[0]]) if hits.size == 1 else 0
        # a candidate whose outcome rests on a letter of positive mass at
        # the boundary, all other letters being typical
        edge = (np.abs(slack) <= tie) & (ref[None, :] > 0.0)
        rest = np.where(edge, -np.inf, slack).max(axis=1)
        ties[b] = bool((edge.any(axis=1) & (rest <= 0.0)).any())
    return out, ties


def superposition_candidates(inner: np.ndarray, outer: np.ndarray, x_size: int):
    """Receiver-1 candidates (u * |X| + x letters, m1 labels) and
    receiver-2 candidates (u letters, m2 labels) of a superposition
    codebook with inner (m2, w2, n) and outer (m1, w1, m2, w2, n)."""
    m1s, w1s, m2s, w2s, n = outer.shape
    c1 = (inner[None, None, :, :, :] * x_size + outer).reshape(-1, n)
    l1 = np.repeat(np.arange(m1s), w1s * m2s * w2s)
    c2 = inner.reshape(-1, n)
    l2 = np.repeat(np.arange(m2s), w2s)
    return c1, l1, c2, l2


def receiver_laws(law: np.ndarray, informed: bool):
    """Per-letter receiver-1 and receiver-2 observation rows from a
    wiretap law (x, y1, y2, z); informed receiver 1 sees (y1, z) pairs
    coded y1 * |Z| + z."""
    xs, y1s, y2s, zs = law.shape
    if informed:
        obs1 = law.sum(axis=2).reshape(xs, y1s * zs)
    else:
        obs1 = law.sum(axis=(2, 3))
    return obs1, law.sum(axis=(1, 3))


def exact_error_probability(
    outer: np.ndarray,
    law: np.ndarray,
    informed: bool,
    dec1: np.ndarray,
    dec2: np.ndarray,
) -> float:
    """P[(mh1, mh2) != (m1, m2)] of a superposition code, summed branch
    by branch: uniform (m1, w1, m2, w2), memoryless channel, and the
    given decode tables over flat observation sequences.

    Each branch enumerates only the output sequences its codeword can
    produce, so the sum stays small on channels with sparse rows."""
    m1s, w1s, m2s, w2s, n = outer.shape
    xs, y1s, y2s, zs = law.shape
    # per-letter rows over (obs1, y2) pairs, keeping the receivers' dependence
    if informed:
        rows = np.transpose(law, (0, 1, 3, 2)).reshape(xs, y1s * zs * y2s)
        obs1_size = y1s * zs
    else:
        rows = law.sum(axis=3).reshape(xs, y1s * y2s)
        obs1_size = y1s
    correct = 0.0
    for m1 in range(m1s):
        for w1 in range(w1s):
            for m2 in range(m2s):
                for w2 in range(w2s):
                    o_idx = np.zeros(1, dtype=np.int64)
                    y_idx = np.zeros(1, dtype=np.int64)
                    prob = np.ones(1)
                    for a in outer[m1, w1, m2, w2]:
                        nz = np.flatnonzero(rows[a])
                        o_idx = (o_idx[:, None] * obs1_size + nz[None, :] // y2s).ravel()
                        y_idx = (y_idx[:, None] * y2s + nz[None, :] % y2s).ravel()
                        prob = (prob[:, None] * rows[a][nz][None, :]).ravel()
                    ok = (dec1[o_idx] == m1) & (dec2[y_idx] == m2)
                    correct += float(prob[ok].sum())
    return 1.0 - correct / (m1s * w1s * m2s * w2s)


def message_state_joint(outer: np.ndarray, law: np.ndarray) -> np.ndarray:
    """Exact P(m1, m2, z^n) of a superposition code, shape (m1, m2, |Z|^n)."""
    m1s, w1s, m2s, w2s, n = outer.shape
    z_rows = law.sum(axis=(1, 2))  # (x, z)
    out = np.zeros((m1s, m2s, z_rows.shape[1] ** n))
    w = 1.0 / (m1s * w1s * m2s * w2s)
    for m1 in range(m1s):
        for w1 in range(w1s):
            for m2 in range(m2s):
                for w2 in range(w2s):
                    out[m1, m2] += w * seq_product(z_rows, outer[m1, w1, m2, w2])
    return out


def message_state_tv(p_mz: np.ndarray, q_z: np.ndarray) -> float:
    """|| P(m, z^n) - unif(m) x q_z^n || (half L1)."""
    m1s, m2s, zf = p_mz.shape
    n = round(math.log(zf, len(q_z)))
    target = seq_product(np.asarray(q_z)[None, :], [0] * n) / (m1s * m2s)
    return 0.5 * float(np.abs(p_mz - target[None, None, :]).sum())
