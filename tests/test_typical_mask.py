"""The decode-table kernel against the scalar letter-typicality test.

``codes._typical_mask`` decides every (observation, candidate) pair from
per-position match counts; ``divergence.is_typical`` builds the pair's
empirical pmf and compares it bin by bin.  The two must agree on every
pair, not only on the decoded message, because most decode tables send
nearly every observation to message 0.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wtgp import codes
from wtgp.divergence import is_typical
from wtgp.pmf import FinitePmf

# derandomized, so that the suite draws the same examples on every run
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)

# eps < 1 makes every positive-reference bin required; eps = 0 and the
# reference taken from a drawn pair put counts exactly on |k/n - p| = eps p
EPS = (0.0, 0.3, 0.99, 1.0, 1.5, 32.0)


@st.composite
def kernel_cases(draw):
    n = draw(st.integers(1, 8))
    base_c = draw(st.integers(1, 3))
    base_o = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cand = rng.integers(0, base_c, size=(draw(st.integers(1, 6)), n))
    obs = rng.integers(0, base_o, size=(draw(st.integers(1, 6)), n))
    bins = base_c * base_o
    if draw(st.booleans()):
        # the empirical pmf of one drawn pair: that pair and every pair
        # with the same histogram is typical at every eps
        ref = np.bincount(cand[0] * base_o + obs[-1], minlength=bins) / float(n)
    else:
        ref = rng.dirichlet(np.ones(bins))
        ref[rng.random(bins) < 0.3] = 0.0
        if ref.sum() == 0.0:
            ref[rng.integers(bins)] = 1.0
        ref /= ref.sum()
    return cand, obs, base_o, ref, draw(st.sampled_from(EPS)), draw(st.booleans())


@PROPERTY
@given(kernel_cases())
def test_mask_matches_scalar_typicality(case):
    cand, obs, base_o, ref, eps, wide = case
    n = cand.shape[1]
    # wide: take the float64 products used when the count table outgrows
    # float32's exact integers
    with mock.patch.object(codes, "_F32_EXACT", 0 if wide else codes._F32_EXACT):
        mask = codes._typical_mask(cand, obs, base_o, ref, eps, n)
    pmf = FinitePmf(ref)
    expected = np.array(
        [[is_typical(c * base_o + o, pmf, eps) for c in cand] for o in obs]
    )
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, expected)
