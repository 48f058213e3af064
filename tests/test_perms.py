import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racklab import perms
from racklab.perms import (all_permutations, conjugate, distinct_rows, is_permutation,
                           lehmer_rank, lehmer_ranks, lehmer_unrank, lehmer_unranks,
                           permutation_rows)

import _reference
from _corpus import from_cycles
from _reference import compose, identity, inverse


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
# 20! < 2**62 < 21!: the digits of [20] fit one int64 run, those of [21] take two
@example([(7 * i + 3) % 20 for i in range(20)])
@example([(5 * i + 2) % 21 for i in range(21)])
def test_lehmer_rank_matches_reference(perm):
    p = tuple(perm)
    rank = lehmer_rank(p)
    assert rank == reference_lehmer_rank(p)
    assert lehmer_rank(list(p)) == rank
    assert lehmer_unrank(rank, len(p)) == p


@pytest.mark.parametrize("n", [20, 21, 256])
def test_lehmer_last_rank_is_the_reversal(n):
    last = math.factorial(n) - 1
    reversal = tuple(range(n - 1, -1, -1))
    assert lehmer_rank(reversal) == last
    assert lehmer_unrank(last, n) == reversal
    for bad in (-1, last + 1):
        with pytest.raises(ValueError, match=f"rank {bad} out of range for n={n}"):
            lehmer_unrank(bad, n)


def test_lehmer_round_trip_over_many_row_blocks():
    rng = random.Random(2000)
    p = tuple(rng.sample(range(2000), 2000))
    rank = lehmer_rank(p)
    assert rank == reference_lehmer_rank(p)
    assert lehmer_unrank(rank, 2000) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.integers(0, perms._MAPS + 2), st.integers(0, 2 ** 32))
# the digit count takes 64 positions at a time, the batch 64 maps at a time
@example(63, 65, 0)
@example(64, 64, 1)
@example(65, 1, 2)
@example(128, 66, 3)
@example(129, 2, 4)
@example(0, 3, 5)
def test_lehmer_ranks_match_the_reference_row_by_row(n, k, seed):
    rng = random.Random(seed)
    rows = [rng.sample(range(n), n) for _ in range(k)]
    table = np.array(rows, dtype=np.int64).reshape(k, n)
    ranks = lehmer_ranks(table)
    assert ranks == [reference_lehmer_rank(row) for row in rows]
    assert lehmer_ranks(tuple(map(tuple, rows))) == ranks
    maps = lehmer_unranks(ranks, n)
    assert maps.dtype == np.int32 and maps.shape == (k, n)
    assert maps.tolist() == rows


def test_lehmer_unranks_names_the_first_rank_out_of_range():
    # the bad rank sits in the second block of 64 ranks
    n = 70
    ranks = [random.Random(i).randrange(math.factorial(n)) for i in range(66)]
    bad = math.factorial(n) + 7
    ranks[65] = bad
    with pytest.raises(ValueError, match=f"^rank {bad} out of range for n={n}$"):
        lehmer_unranks(ranks, n)
    with pytest.raises(ValueError, match=f"^rank -1 out of range for n={n}$"):
        lehmer_unranks([0, -1, bad], n)


@pytest.mark.parametrize("n, runs, pad", [(20, 1, 0), (21, 2, 0), (256, 29, 3)])
def test_lehmer_unranks_splits_through_the_run_tree(n, runs, pad):
    # one run needs no split; 29 runs are padded to 32 leaves, 5 levels
    nfact, tree_pad, levels = perms._run_tree(n)
    assert len(perms._runs(n)[1]) == runs and tree_pad == pad
    assert nfact == math.factorial(n)
    depth = (runs + pad).bit_length() - 1
    assert [len(level) for level in levels] == [2 ** i for i in range(depth)]
    rng = random.Random(n)
    rows = [list(range(n)), list(range(n - 1, -1, -1))] + [rng.sample(range(n), n)
                                                        for _ in range(perms._MAPS + 3)]
    ranks = [reference_lehmer_rank(row) for row in rows]
    assert ranks[:2] == [0, nfact - 1]
    maps = lehmer_unranks(ranks, n)
    assert maps.dtype == np.int32 and maps.tolist() == rows


def test_lehmer_unranks_checks_every_rank_before_the_split():
    # the first bad rank is named even past the first block of 64 maps, and
    # before a later negative one
    n = 256
    nfact = math.factorial(n)
    ranks = [random.Random(i).randrange(nfact) for i in range(100)]
    ranks[70], ranks[90] = nfact, -5
    with pytest.raises(ValueError, match=f"^rank {nfact} out of range for n={n}$"):
        lehmer_unranks(ranks, n)
    ranks[70] = 0
    with pytest.raises(ValueError, match=f"^rank -5 out of range for n={n}$"):
        lehmer_unranks(ranks, n)


@pytest.mark.parametrize("n", [0, 1, 20, 256])
def test_lehmer_unranks_of_no_ranks(n):
    maps = lehmer_unranks([], n)
    assert maps.dtype == np.int32 and maps.shape == (0, n)


def test_lehmer_unranks_takes_numpy_int_ranks():
    # the tree's divisors pass 2**63 at n = 30, so ranks become Python ints first
    ranks = [0, 5, 2 ** 62]
    maps = lehmer_unranks(np.array(ranks, dtype=np.int64), 30)
    assert maps.tolist() == lehmer_unranks(ranks, 30).tolist()
    assert lehmer_unrank(np.int64(5), 30) == tuple(maps[1].tolist())


@st.composite
def repeated_rows(draw, max_n=40):
    """(n, rows): k <= 70 rows of [n], each a copy of one of a few distinct
    permutations, so most rows repeat an earlier one."""
    n = draw(st.integers(0, max_n))
    bases = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(bases) - 1), max_size=70))
    return n, [list(bases[i]) for i in picks]


@settings(max_examples=200, deadline=None)
@given(repeated_rows())
def test_distinct_rows_names_each_distinct_row_by_its_first_occurrence(family):
    n, rows = family
    table = np.array(rows, dtype=np.int32).reshape(len(rows), n)
    first, inverse = distinct_rows(table)
    expected = [i for i, row in enumerate(rows) if row not in rows[:i]]
    assert first.tolist() == expected
    assert inverse.tolist() == [expected.index(rows.index(row)) for row in rows]
    assert np.array_equal(table[first][inverse], table)


@pytest.mark.parametrize("k, n, first", [(0, 0, []), (0, 5, []), (3, 0, [0]), (1, 4, [0])])
def test_distinct_rows_of_empty_shapes(k, n, first):
    got, inverse = distinct_rows(np.zeros((k, n), dtype=np.int64))
    assert got.tolist() == first and inverse.tolist() == [0] * k


@settings(max_examples=150, deadline=None)
@given(repeated_rows(max_n=70))
@example((0, [[]] * 3))
@example((1, [[0]] * 2))
@example((5, []))
def test_lehmer_ranks_of_repeated_rows_match_the_reference(family):
    n, rows = family
    table = np.array(rows, dtype=np.int64).reshape(len(rows), n)
    ranks = lehmer_ranks(table)
    assert ranks == [reference_lehmer_rank(row) for row in rows]
    assert lehmer_ranks([tuple(row) for row in rows]) == ranks
    maps = lehmer_unranks(ranks, n)
    assert maps.dtype == np.int32 and maps.shape == (len(rows), n)
    assert maps.tolist() == rows
    if n <= 20:     # 20! < 2**63: the ranks fit numpy int64s
        assert lehmer_unranks(np.array(ranks, dtype=np.int64), n).tolist() == rows


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 30), st.lists(st.integers(-3, 3), min_size=1, max_size=80))
def test_repeated_bad_ranks_name_the_first_in_input_order(n, offsets):
    # an offset o < 0 is the rank o, o = 0 the rank 0, and o > 0 the rank
    # n! - 2 + o: the last rank at o = 1, out of range at o = 2 or 3
    nfact = math.factorial(n)
    ranks = [o if o < 0 else nfact - 2 + o if o > 0 else 0 for o in offsets]
    bad = [r for r in ranks if not 0 <= r < nfact]
    if not bad:
        assert lehmer_unranks(ranks, n).tolist() == [list(lehmer_unrank(r, n)) for r in ranks]
        return
    with pytest.raises(ValueError, match=f"^rank {bad[0]} out of range for n={n}$"):
        lehmer_unranks(ranks, n)


def test_lehmer_rank_memory_is_linear_in_n():
    # an n x n/64 table of bitsets would take 32 MB here
    n = 16384
    p = tuple(random.Random(n).sample(range(n), n))
    tracemalloc.start()
    try:
        rank = lehmer_rank(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert lehmer_unrank(rank, n) == p


def test_is_permutation():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert not is_permutation((0, 1), 3)


@pytest.mark.parametrize("p, n", [
    ((2, 0, 1), None), ((2, 0, 1), 3), ((2, 0, 1), 2), ((0, 0, 1), None), ([1, 0], 2),
    ((), None), ((), 0), ((), 1), ([0, [1, 2]], None), ([[0, 1], [1, 0]], None),
    ((0, 1, 2 ** 70), None), ((0, 2 ** 64 - 1), None), ((0, -1), None), ((1, -1), None),
    ((0.0, 1.0), None), ((0, None), None), ("ab", None), ((0, 1), 3), ((0, 1), 1),
])
def test_is_permutation_agrees_with_the_loop(p, n):
    assert is_permutation(p, n) == _reference.is_permutation(p, n)


def test_is_permutation_differs_from_the_loop_only_on_bools_and_numpy_ints():
    # a bool is an int to Python, so the loop took (True, False) for (1, 0)
    assert _reference.is_permutation((True, False)) and not is_permutation((True, False))
    assert not is_permutation(np.array([True, False]))
    for p in (np.array([1, 2, 0]), np.array([1, 0], dtype=np.uint8), tuple(np.arange(3))):
        assert is_permutation(p) and not _reference.is_permutation(p)
    assert is_permutation(np.array([1, 2, 0]), 3) and not is_permutation(np.array([1, 2, 0]), 4)
    assert not is_permutation(np.array([[0, 1], [1, 0]]))


def test_permutation_rows_sorts_in_the_rows_own_dtype():
    rows = np.array([[1, 0, 2], [2, 2, 0], [0, 1, 2 ** 32 + 2]], dtype=np.int64)
    assert permutation_rows(rows).tolist() == [True, False, False]
    assert permutation_rows(np.zeros((4, 0), dtype=np.int32)).tolist() == [True] * 4
