"""Information measures on finite distributions.

Conventions, fixed package-wide:

* logarithms are base 2, all quantities in bits;
* 0 * log 0 = 0 and 0 * log(0/0) = 0;
* relative entropy D(p||q) = sum_{x in supp(p)} p(x) log(p(x)/q(x)), equal
  to ``math.inf`` (the distinguished infinite value, never an overflow)
  when p is not absolutely continuous w.r.t. q;
* total variation ||p - q|| = (1/2) sum_x |p(x) - q(x)|
  = max_A (p(A) - q(A)), a value in [0, 1].

Mutual information is computed as the relative entropy between the joint
marginal and the product of its marginals, so I(left; right) >= 0 holds by
construction.  Entropy is the self-information H(A) = I(A; A), computed
directly as -sum p log p.

The letter-typical set used by the decoders: a sequence x is eps-typical
for p when its empirical pmf nu satisfies |nu(a) - p(a)| <= eps * p(a) for
every letter a (letters outside supp(p) must not occur).

``mi_continuity_bound`` is the entropy-continuity envelope for the mutual
information of two joints within total variation eps:
2 n eps (log|X| + log|Y|) - 3 eps log eps, valid for
0 < eps <= 2^(-1/ln 2), the threshold below which -t log t is increasing.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import NumericalError, ShapeError
from .pmf import FinitePmf, JointPmf, aligned_masses

Dist = Union[FinitePmf, JointPmf]

MI_CONTINUITY_EPS_MAX = 2.0 ** (-1.0 / math.log(2.0))

# cells per block of the total-variation sums
TV_BLOCK = 1 << 18


def _pair_masses(p: Dist, q: Dist) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, FinitePmf) and isinstance(q, FinitePmf):
        if p.alphabet_size != q.alphabet_size:
            raise ShapeError(
                f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}"
            )
        return p.mass, q.mass
    if isinstance(p, JointPmf) and isinstance(q, JointPmf):
        return aligned_masses(p, q)
    raise ShapeError("p and q must both be FinitePmf or both be JointPmf")


def total_variation(p: Dist, q: Dist) -> float:
    pm, qm = _pair_masses(p, q)
    pm, qm = pm.reshape(-1), qm.reshape(-1)
    # flat blocks of at most TV_BLOCK cells bound the difference buffer
    diff = np.empty(min(pm.size, TV_BLOCK))
    return blocked_total_variation(
        (pm[s : s + TV_BLOCK], qm[s : s + TV_BLOCK], diff[: min(TV_BLOCK, pm.size - s)])
        for s in range(0, pm.size, TV_BLOCK)
    )


def blocked_total_variation(blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> float:
    """Total variation from flat blocks (p, q, out) of two masses.

    ``out`` receives the block's difference and may be p's own storage.
    Blocks where p and q are both zero may be left out: their partial sums
    are zero.  math.fsum adds the block partials exactly, so the sums do
    not accumulate rounding across blocks, and two callers that cut the
    same cells at the same boundaries get bitwise the same result.
    """
    pos, l1 = [], []
    for pb, qb, out in blocks:
        d = np.subtract(pb, qb, out=out)
        pos.append(float(d.sum(where=d > 0)))
        l1.append(float(np.abs(d, out=d).sum()))
    # one-sided form max_A (p(A) - q(A)) must agree with the half-L1 form
    one_sided = math.fsum(pos)
    tv = 0.5 * math.fsum(l1)
    residual = abs(tv - one_sided)
    if not residual <= 1e-12:
        raise NumericalError(
            f"half-L1 and one-sided total variation differ by {residual!r}, "
            "tolerance 1e-12"
        )
    return tv


def relative_entropy(p: Dist, q: Dist) -> float:
    pm, qm = _pair_masses(p, q)
    pm = pm.reshape(-1)
    qm = qm.reshape(-1)
    supp = pm > 0.0
    if (qm[supp] == 0.0).any():
        return math.inf
    ps = pm[supp]
    return float(np.sum(ps * np.log2(ps / qm[supp])))


def _entropy_bits(arr: np.ndarray) -> float:
    flat = arr.reshape(-1)
    nz = flat[flat > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def entropy(joint: Dist, axes: Iterable[str] | None = None) -> float:
    """H(axes) in bits; all axes when ``axes`` is None."""
    if isinstance(joint, FinitePmf):
        if axes is not None:
            raise ValueError("axes selection needs a JointPmf")
        return _entropy_bits(joint.mass)
    if axes is None:
        return _entropy_bits(joint.mass)
    return _entropy_bits(joint.marginalize(axes).mass)


def conditional_entropy(
    joint: JointPmf, target: Iterable[str], given: Iterable[str]
) -> float:
    target = set(target)
    given = set(given)
    if target & given:
        raise ValueError("target and given axis sets overlap")
    return entropy(joint, target | given) - entropy(joint, given)


def _clamp_information(val: float, what: str) -> float:
    """Clamp rounding below zero to 0; below -1e-10 is a NumericalError."""
    if not val > -1e-10:
        raise NumericalError(f"{what} is {val!r}, below the tolerance -1e-10")
    return val if val > 0.0 else 0.0


def mutual_information(
    joint: JointPmf, left: Iterable[str], right: Iterable[str]
) -> float:
    """I(left; right) = D(marginal(left+right) || marginal(left) x marginal(right))."""
    left = set(left)
    right = set(right)
    if not left or not right:
        raise ValueError("left and right must be non-empty")
    if left & right:
        raise ValueError(f"axis sets overlap: {sorted(left & right)}")
    m = joint.marginalize(left | right)
    ml = m.marginalize(left)
    mr = m.marginalize(right)
    # product of marginals broadcast back to m's axis order
    shape_l = [ax.size if ax.name in left else 1 for ax in m.axes]
    shape_r = [ax.size if ax.name in right else 1 for ax in m.axes]
    prod = ml.mass.reshape(shape_l) * mr.mass.reshape(shape_r)
    pm = m.mass.reshape(-1)
    qm = prod.reshape(-1)
    supp = pm > 0.0
    # joint support is inside the product support, so the ratio is finite
    val = float(np.sum(pm[supp] * np.log2(pm[supp] / qm[supp])))
    return _clamp_information(val, "mutual information")


def conditional_mutual_information(
    joint: JointPmf,
    left: Iterable[str],
    right: Iterable[str],
    given: Iterable[str],
) -> float:
    """I(left; right | given) via the four-entropy expansion."""
    left = set(left)
    right = set(right)
    given = set(given)
    if (left & right) or (left & given) or (right & given):
        raise ValueError("left, right, given must be pairwise disjoint")
    if not left or not right:
        raise ValueError("left and right must be non-empty")
    if not given:
        return mutual_information(joint, left, right)
    val = (
        entropy(joint, left | given)
        + entropy(joint, right | given)
        - entropy(joint, left | right | given)
        - entropy(joint, given)
    )
    return _clamp_information(val, "conditional mutual information")


def empirical_pmf(seq: Sequence[int], alphabet_size: int) -> FinitePmf:
    """Empirical distribution nu(a) = N(a | seq) / len(seq)."""
    arr = np.asarray(seq, dtype=np.int64).reshape(-1)
    if arr.size == 0:
        raise ValueError("sequence must be non-empty")
    k = int(alphabet_size)
    if arr.min() < 0 or arr.max() >= k:
        bad = arr[(arr < 0) | (arr >= k)][0]
        raise ValueError(f"symbol {int(bad)} outside alphabet of size {k}")
    counts = np.bincount(arr, minlength=k).astype(np.float64)
    return FinitePmf(counts / arr.size)


def is_typical(seq: Sequence[int], p: FinitePmf, eps: float) -> bool:
    """Letter typicality: |nu(a) - p(a)| <= eps * p(a) for every a."""
    # NaN or inf would call every sequence atypical (inf * 0 is NaN)
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError("eps must be finite and >= 0")
    nu = empirical_pmf(seq, p.alphabet_size)
    return bool(np.all(np.abs(nu.mass - p.mass) <= eps * p.mass))


def mi_continuity_bound(eps: float, n: int, size_x: int, size_y: int) -> float:
    """Bound on |I_mu(X^n;Y^n) - I_nu(X^n;Y^n)| for joints within TV eps."""
    eps = float(eps)
    n = int(n)
    size_x = int(size_x)
    size_y = int(size_y)
    if n < 1 or size_x < 1 or size_y < 1:
        raise ValueError("n and alphabet sizes must be >= 1")
    if not (0.0 < eps <= MI_CONTINUITY_EPS_MAX):
        raise ValueError(
            f"eps must lie in (0, {MI_CONTINUITY_EPS_MAX!r}], got {eps!r}"
        )
    return 2.0 * n * eps * (math.log2(size_x) + math.log2(size_y)) - 3.0 * eps * math.log2(eps)
