"""Permutations of {0, ..., n-1} as tuples of images.

Maps act on the right throughout the package: ``compose(f, g)`` is
"apply f, then g", so writing a product fg means f first.  With this
convention a conjugate g^-1 f g sends x to (((x)g^-1)f)g.

Lexicographic Lehmer ranks are computed with numpy: an O(n^2) compare in
O(n) memory for the digits, and about log2(n!)/62 big-int steps.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


def is_permutation(p, n=None) -> bool:
    """True if p is a permutation of {0, ..., len(p)-1} (of length n if given)."""
    if n is not None and len(p) != n:
        return False
    seen = [False] * len(p)
    for v in p:
        if not isinstance(v, int) or v < 0 or v >= len(seen) or seen[v]:
            return False
        seen[v] = True
    return True


def identity(n: int) -> tuple:
    return tuple(range(n))


def inverse(p) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def compose(f, g) -> tuple:
    """f then g: the image of x is g[f[x]]."""
    return tuple(g[v] for v in f)


def conjugate(f, g) -> tuple:
    """g^-1 f g: apply g^-1, then f, then g."""
    return compose(compose(inverse(g), f), g)


# Lehmer digits are reduced in runs of consecutive positions whose radix
# product stays below 2**62, so that each run's value fits an int64.
_RUN_LIMIT = 1 << 62
# rows per block of the digit compare: its memory is O(n * _BLOCK_ROWS)
_BLOCK_ROWS = 64
_STRICT_UPPER = np.triu(np.ones((_BLOCK_ROWS, _BLOCK_ROWS), dtype=bool), 1)


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


def _lehmer_digits(p) -> np.ndarray:
    """d_i = #{j > i : p_j < p_i}, compared in blocks of _BLOCK_ROWS rows."""
    a = np.array(p, dtype=np.int32)
    n = len(a)
    digits = np.empty(n, dtype=np.int32)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        smaller = a[lo:hi, None] > a[lo:]      # row i - lo, column j - lo
        smaller[:, :hi - lo] &= _STRICT_UPPER[:hi - lo, :hi - lo]
        np.add.reduce(smaller, axis=1, dtype=np.int32, out=digits[lo:hi])
    return digits


def lehmer_rank(p) -> int:
    """Rank of p among the permutations of its length in lexicographic order.

    The Lehmer digits come from one O(n^2) compare in blocks of
    _BLOCK_ROWS rows.  Each run of digits is reduced to one int64, and the
    run values, about log2(n!)/62 of them, are combined in Python ints.
    """
    starts, products, weights, _, _ = _runs(len(p))
    values = np.add.reduceat(_lehmer_digits(p) * weights, starts).tolist()
    rank = 0
    for prod, v in zip(products, values):
        rank = rank * prod + v
    return rank


def lehmer_unrank(rank: int, n: int) -> tuple:
    """Inverse of lehmer_rank; rank must lie in [0, n!)."""
    _, products, weights, run_of, radix = _runs(n)
    values = []
    rest = rank
    for prod in reversed(products):
        rest, v = divmod(rest, prod)
        values.append(v)
    if rest:    # rank < 0 or rank >= n!, the product of the runs
        raise ValueError(f"rank {rank} out of range for n={n}")
    values.reverse()
    digits = np.array(values, dtype=np.int64)[run_of] // weights % radix
    return tuple(map(list(range(n)).pop, digits.tolist()))


def all_permutations(n: int):
    """All permutations of [n] in lexicographic order."""
    return list(itertools.permutations(range(n)))
