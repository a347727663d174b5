"""The decode-table kernel against the scalar letter-typicality test.

``codes._typical_sets`` enumerates each candidate's typical observations
letter group by letter group; ``divergence.is_typical`` builds one
pair's empirical pmf and compares it bin by bin.  The two must agree on
every (candidate, observation) pair, not only on the decoded message,
because most decode tables send nearly every observation to message 0.
"""

import itertools

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
    return cand, obs, base_o, ref, draw(st.sampled_from(EPS))


def every_sequence(base: int, n: int) -> np.ndarray:
    """(base**n, n) letters of every sequence, in flat-index order."""
    return np.array(list(itertools.product(range(base), repeat=n)), dtype=np.int64)


def scalar_mask(cand, base_o, ref, eps):
    """(base_o**n, C) bool: ``is_typical`` of every (observation, candidate) pair.

    A pair's verdict depends only on its bin counts, so ``is_typical``
    runs once on each distinct sorted bin sequence and the pairs that
    sort to it share the result.
    """
    pmf = FinitePmf(ref)
    seqs = every_sequence(base_o, cand.shape[1])
    bins = np.sort(cand[None] * base_o + seqs[:, None], axis=2)
    classes, inverse = np.unique(bins.reshape(-1, cand.shape[1]), axis=0, return_inverse=True)
    verdict = np.array([is_typical(c, pmf, eps) for c in classes])
    return verdict[inverse.reshape(-1)].reshape(len(seqs), len(cand))


def brute_force_decode(cand, labels, base_o, ref, eps):
    """Unique-tuple decoding one observation sequence at a time; failures give 0."""
    mask = scalar_mask(cand, base_o, ref, eps)
    return np.array([labels[row][0] if row.sum() == 1 else 0 for row in mask], dtype=np.int64)


@PROPERTY
@given(kernel_cases())
def test_mask_matches_scalar_typicality(case):
    cand, _, base_o, ref, eps = case
    mask = scalar_mask(cand, base_o, ref, eps)
    sets = list(codes._typical_sets(cand, ref.reshape(-1, base_o), eps))
    assert len(sets) == len(cand)
    for idx, column in zip(sets, mask.T):
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(np.sort(idx), np.flatnonzero(column))


# fewer examples: the kernel's sets are checked above, this checks the
# unique-tuple rule on top of them; candidates 0, 2, 4 share message 1
# and 1, 3, 5 message 2, and base_c = 1 makes every candidate the same
@settings(PROPERTY, max_examples=100)
@given(kernel_cases())
def test_decode_all_matches_unique_tuple_decoding(case):
    cand, _, base_o, ref, eps = case
    labels = 1 + np.arange(len(cand)) % 2
    got = codes._decode_all(cand, labels, ref.reshape(-1, base_o), eps)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, brute_force_decode(cand, labels, base_o, ref, eps))


def test_two_typical_candidates_with_one_message_decode_to_zero():
    # the reference is the pair histogram of (0, 0, 1) and (0, 1, 0) at
    # eps = 0: candidates 0 and 1 are both (0, 0, 1) with message 2, and
    # their typical set is {(0, 1, 0), (1, 0, 0)}; candidate 2, (0, 1, 0)
    # with message 3, has {(0, 0, 1), (1, 0, 0)}
    cand = np.array([[0, 0, 1], [0, 0, 1], [0, 1, 0]])
    labels = np.array([2, 2, 3])
    ref = np.bincount(cand[0] * 2 + np.array([0, 1, 0]), minlength=4) / 3.0
    got = codes._decode_all(cand, labels, ref.reshape(2, 2), 0.0)
    np.testing.assert_array_equal(got, brute_force_decode(cand, labels, 2, ref, 0.0))
    np.testing.assert_array_equal(got, [0, 3, 0, 0, 0, 0, 0, 0])


def test_a_letter_the_candidate_lacks_can_rule_every_pair_out():
    # eps < 1 requires bin (1, 0), which candidate (0, 0) cannot fill,
    # while bin (1, 1), with reference 0, passes empty.  Its own letter
    # alone would pass observation (0, 0): nu = 1 is within 0.9 * 0.6 of
    # 0.6.  Candidate (0, 1) fills bin (1, 0) at observation (0, 0) only.
    ref = np.array([0.6, 0.0, 0.4, 0.0])
    cand = np.array([[0, 0], [0, 1]])
    sets = codes._typical_sets(cand, ref.reshape(2, 2), 0.9)
    for idx, column, want in zip(sets, scalar_mask(cand, 2, ref, 0.9).T, ([], [0])):
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(np.flatnonzero(column), want)
