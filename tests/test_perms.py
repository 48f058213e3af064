import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racklab.perms import (all_permutations, compose, conjugate, cycle_count,
                           from_cycles, identity, inverse, is_permutation,
                           lehmer_rank, lehmer_unrank)


def test_compose_is_left_to_right():
    f = (1, 2, 0)
    g = (1, 0, 2)
    # (x)(fg): apply f first
    assert compose(f, g) == (0, 2, 1)
    assert compose(g, f) == (2, 1, 0)


def test_inverse_and_conjugate():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(1, 8)
        f = tuple(rng.sample(range(n), n))
        g = tuple(rng.sample(range(n), n))
        assert compose(f, inverse(f)) == identity(n)
        conj = conjugate(f, g)
        for x in range(n):
            assert conj[x] == g[f[inverse(g)[x]]]


def test_cycle_count():
    assert cycle_count((0, 1, 2)) == 3
    assert cycle_count((1, 2, 0)) == 1
    assert cycle_count((1, 0, 3, 2)) == 2


def test_from_cycles():
    assert from_cycles(4, [(0, 1)]) == (1, 0, 2, 3)
    assert from_cycles(3, [(0, 1, 2)]) == (1, 2, 0)
    with pytest.raises(ValueError):
        from_cycles(3, [(0, 1), (1, 2)])


def test_lehmer_round_trip_and_order():
    for n in range(1, 6):
        perms = all_permutations(n)
        for rank, p in enumerate(perms):
            assert lehmer_rank(p) == rank
            assert lehmer_unrank(rank, n) == p
    with pytest.raises(ValueError):
        lehmer_unrank(24, 4)


def reference_lehmer_rank(p):
    """The O(n^2) rank that lehmer_rank replaced, kept as a test oracle."""
    n = len(p)
    rank = 0
    for i, v in enumerate(p):
        smaller = sum(1 for w in p[i + 1:] if w < v)
        rank = rank * (n - i) + smaller
    return rank


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 300).flatmap(lambda n: st.permutations(range(n))))
@example(list(range(300)))            # rank 0
@example(list(range(299, -1, -1)))    # rank 300! - 1
def test_lehmer_rank_matches_reference(perm):
    p = tuple(perm)
    rank = lehmer_rank(p)
    assert rank == reference_lehmer_rank(p)
    assert lehmer_unrank(rank, len(p)) == p


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert not is_permutation((0, 1), 3)
