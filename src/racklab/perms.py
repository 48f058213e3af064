"""Permutations of {0, ..., n-1} as tuples of images.

Maps act on the right throughout the package: ``compose(f, g)`` is
"apply f, then g", so writing a product fg means f first.  With this
convention a conjugate g^-1 f g sends x to (((x)g^-1)f)g.
"""

from __future__ import annotations

import itertools
import math


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


def cycle_count(p) -> int:
    """Number of cycles of p, fixed points included."""
    seen = [False] * len(p)
    count = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        count += 1
        v = start
        while not seen[v]:
            seen[v] = True
            v = p[v]
    return count


def from_cycles(n: int, cycles) -> tuple:
    """Permutation of [n] from a list of cycles, e.g. [(0, 1, 2), (4, 5)]."""
    images = list(range(n))
    for cyc in cycles:
        for i, v in enumerate(cyc):
            images[v] = cyc[(i + 1) % len(cyc)]
    p = tuple(images)
    if not is_permutation(p, n):
        raise ValueError(f"cycles do not define a permutation of [{n}]")
    return p


def lehmer_rank(p) -> int:
    """Rank of p among the permutations of its length in lexicographic order.

    Scans right to left; a Fenwick tree over the values already passed
    counts those smaller than the current one, which is its Lehmer digit,
    weighted by k! for the k values to its right.  O(n log n) steps.
    """
    n = len(p)
    tree = [0] * (n + 1)
    rank = 0
    weight = 1
    for k, v in enumerate(reversed(p)):
        smaller = 0
        i = v
        while i:
            smaller += tree[i]
            i &= i - 1
        i = v + 1
        while i <= n:
            tree[i] += 1
            i += i & -i
        rank += smaller * weight
        weight *= k + 1
    return rank


def lehmer_unrank(rank: int, n: int) -> tuple:
    """Inverse of lehmer_rank; rank must lie in [0, n!)."""
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    digits = []
    for base in range(1, n + 1):
        digits.append(rank % base)
        rank //= base
    digits.reverse()
    pool = list(range(n))
    return tuple(pool.pop(d) for d in digits)


def all_permutations(n: int):
    """All permutations of [n] in lexicographic order."""
    return list(itertools.permutations(range(n)))
