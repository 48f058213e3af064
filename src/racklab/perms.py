"""Permutations of {0, ..., n-1} as sequences or arrays of images.

Maps act on the right throughout the package: (x)f is the image of x
under f, and a product fg means "apply f, then g", sending x to
((x)f)g.  So a conjugate g^-1 f g sends x to (((x)g^-1)f)g.  One numpy
check, permutation_rows, decides which rows of an array are permutations;
every permutation test in the package goes through it.

Lexicographic Lehmer ranks: the digits of 64 maps at a time are bitset popcounts
in O(n/64) words per map, then about log2(n!)/62 big-int steps make a rank.
Unranking splits all the ranks at once down a balanced tree of run products,
one vectorised divmod per level.  Both rank and unrank each distinct map once
(distinct_rows, or equal ranks) and copy the result to its repeats.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np


def permutation_rows(rows) -> np.ndarray:
    """Per row of a (k, n) integer array, whether it is a permutation of [n].

    Each row is sorted in its own dtype, so no entry can wrap onto a vertex."""
    rows = np.asarray(rows)
    return (np.sort(rows, axis=1) == np.arange(rows.shape[1])).all(axis=1)


def is_permutation(p, n=None) -> bool:
    """True if p, a sequence or 1-D array of integers (not bools), is a
    permutation of {0, ..., len(p)-1}, of length n if given."""
    try:
        row = np.asarray(p)
    except ValueError:      # ragged: scalars mixed with sequences
        return False
    if row.shape == (0,):   # an empty sequence reads as float64
        row = row.astype(np.intp)
    return (row.ndim == 1 and row.dtype.kind in "iu" and (n is None or len(row) == n)
            and bool(permutation_rows(row[None])[0]))


def conjugate(f, g) -> tuple:
    """g^-1 f g: apply g^-1, then f, then g."""
    g_inverse = sorted(range(len(g)), key=g.__getitem__)
    return tuple(g[f[x]] for x in g_inverse)


# Lehmer digits are reduced in runs of consecutive positions whose radix
# product stays below 2**62, so that each run's value fits an int64.
_RUN_LIMIT = 1 << 62
_MAPS = 64      # maps per block of the batch functions
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))   # _BITS[b] = 1 << b


@functools.lru_cache(maxsize=16)
def _runs(n: int):
    """(starts, products, weights, run_of, radix) for the digits of [n].

    Digit i has radix n - i.  Run k covers positions starts[k] onwards and
    has radix product products[k] < 2**62; a digit's weight is the product
    of the radices after it in its run, and run_of maps it to its run.
    """
    radix = np.arange(n, 0, -1, dtype=np.int64)
    starts, products = [], []
    weights = np.ones(n, dtype=np.int64)
    run_of = np.empty(n, dtype=np.intp)
    i = 0
    while i < n:
        j, prod = i, 1
        while j < n and prod * (n - j) < _RUN_LIMIT:
            prod *= n - j
            j += 1
        for k in range(j - 2, i - 1, -1):
            weights[k] = weights[k + 1] * radix[k + 1]
        run_of[i:j] = len(products)
        starts.append(i)
        products.append(prod)
        i = j
    return np.array(starts, dtype=np.intp), products, weights, run_of, radix


@functools.lru_cache(maxsize=16)
def _run_tree(n: int):
    """(n!, pad, levels): a balanced product tree over the runs of [n].

    The runs are padded in front with pad runs of product 1, up to 2^d
    leaves.  Level l has 2^l nodes, and levels[l] holds, per node, the
    product of its right half: divmod by it splits the node's value into
    the values of its two halves, so d levels turn a rank into its runs.
    """
    products = _runs(n)[1]
    pad = (1 << max(len(products) - 1, 0).bit_length()) - len(products)
    tiers = [[1] * pad + products]
    while len(tiers[-1]) > 1:
        tiers.append([a * b for a, b in zip(tiers[-1][::2], tiers[-1][1::2])])
    levels = tuple(np.array(tier[1::2], dtype=object) for tier in tiers[-2::-1])
    return tiers[-1][0], pad, levels


_divmod = np.frompyfunc(divmod, 2, 2)


def _lehmer_digits(perms: np.ndarray) -> np.ndarray:
    """d[r, i] = #{j > i : perms[r, j] < v} = popcount(S_i & below(v)), v = perms[r, i].

    Blocks of 64 positions go right to left, carrying S, the values after the
    block, as uint64 words: its bits below v are those of the words before v's
    and of v's word under v.  Inside the block, ranks within it fit one word."""
    k, n = perms.shape
    digits = np.empty((k, n), dtype=np.int64)
    s = np.zeros((k, -(-n // 64)), dtype=np.uint64)
    for hi in range(n, 0, -64):
        lo = max(hi - 64, 0)
        block = perms[:, lo:hi]
        word, bit = block >> 6, _BITS[block & 63]
        counts = np.bitwise_count(s)
        before = np.cumsum(counts, axis=1, dtype=np.int64) - counts
        d = np.take_along_axis(before, word, 1)
        d += np.bitwise_count(np.take_along_axis(s, word, 1) & (bit - 1))
        inner = np.empty_like(bit)          # the bit of each value's rank in the block
        np.put_along_axis(inner, np.argsort(block, axis=1), _BITS[:hi - lo], 1)
        suffix = np.bitwise_or.accumulate(inner[:, ::-1], axis=1)[:, ::-1]   # from i on
        digits[:, lo:hi] = d + np.bitwise_count(suffix & (inner - 1))
        np.bitwise_or.at(s, (np.arange(k)[:, None], word), bit)
    return digits


def distinct_rows(rows: np.ndarray):
    """(first, inverse) for a (k, n) array: first holds, ascending, the index
    of each distinct row's first occurrence, and inverse maps every row to
    its place in first, so rows == rows[first][inverse]."""
    k, n = rows.shape
    if not k * n:       # no rows, or k equal empty rows
        return np.arange(min(k, 1)), np.zeros(k, dtype=np.intp)
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * n))).ravel()
    _, index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(index)       # np.unique sorts by key; renumber by first row
    return index[order], np.argsort(order)[inverse]


def lehmer_ranks(perms) -> list:
    """Lexicographic ranks of the rows of a (k, n) int array or sequence, as
    Python ints: each run of Lehmer digits is one int64, the runs one int.
    Each distinct row is ranked once."""
    if not len(perms):
        return []
    perms = np.asarray(perms, dtype=np.int64)
    first, inverse = distinct_rows(perms)
    ranks = []
    for lo in range(0, len(first), _MAPS):
        block = perms[first[lo:lo + _MAPS]]
        starts, products, weights, _, _ = _runs(block.shape[1])
        for row in np.add.reduceat(_lehmer_digits(block) * weights, starts, axis=1).tolist():
            rank = 0
            for prod, v in zip(products, row):
                rank = rank * prod + v
            ranks.append(rank)
    return list(map(ranks.__getitem__, inverse.tolist()))


def lehmer_unranks(ranks, n: int) -> np.ndarray:
    """Inverse of lehmer_ranks: a (len(ranks), n) int32 array; every rank must
    lie in [0, n!), and the first that does not raises ValueError.

    The distinct ranks, 64 at a time, are split into their run values down
    _run_tree(n), one vectorised divmod per level."""
    nfact, pad, levels = _run_tree(n)
    _, _, weights, run_of, radix = _runs(n)
    values = np.array(list(map(operator.index, ranks)), dtype=object)    # numpy ints too
    bad = np.flatnonzero((values < 0) | (values >= nfact))
    if bad.size:
        raise ValueError(f"rank {values[bad[0]]} out of range for n={n}")
    index = {}      # distinct rank -> its row of perms
    inverse = [index.setdefault(v, len(index)) for v in values.tolist()]
    distinct = np.array(list(index), dtype=object)
    perms = np.empty((len(distinct), n), dtype=np.int32)
    for lo in range(0, len(distinct), _MAPS):
        block = distinct[lo:lo + _MAPS, None]
        for divisors in levels:
            high, low = _divmod(block, divisors)
            block = np.stack([high, low], axis=2).reshape(len(block), 2 * len(divisors))
        digits = (block[:, pad:].astype(np.int64)[:, run_of] // weights % radix).tolist()
        perms[lo:lo + len(digits)] = [list(map(list(range(n)).pop, row)) for row in digits]
    return perms[inverse]


def lehmer_rank(p) -> int:
    """Rank of p among the permutations of its length in lexicographic order."""
    return lehmer_ranks([p])[0]


def lehmer_unrank(rank: int, n: int) -> tuple:
    """Inverse of lehmer_rank; rank must lie in [0, n!)."""
    return tuple(lehmer_unranks([rank], n)[0].tolist())


def all_permutations(n: int):
    """All permutations of [n] in lexicographic order."""
    return list(itertools.permutations(range(n)))
