"""Workload inputs, built from formulas by the benchmark's own code.

Nothing here imports racklab: the program only ever receives the finished
operation tables (``table[x][y] = x > y``).  Every table is relabeled by a
permutation drawn from the run's seed, so different seeds give different
but isomorphic inputs whose cost hardly depends on the seed.
"""

from __future__ import annotations

import itertools
import random

ORDER = 256


def relabel(table, phi):
    """The isomorphic table with every element x renamed to phi[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        row = table[x]
        out_row = out[phi[x]]
        for y in range(n):
            out_row[phi[y]] = phi[row[y]]
    return tuple(tuple(row) for row in out)


def dihedral_table(n):
    """x > y = 2y - x mod n."""
    return tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n))


def alexander_table(n, a):
    """Alexander quandle over Z_n with tau = multiplication by the unit a:
    x > y = (x - y)a + y mod n."""
    return tuple(tuple(((x - y) * a + y) % n for y in range(n)) for x in range(n))


def conjugation_table(elements, mul, inv):
    """Conjugation quandle x > y = y^-1 x y of a group given by its elements."""
    index = {g: i for i, g in enumerate(elements)}
    return tuple(tuple(index[mul(mul(inv(y), x), y)] for y in elements)
                 for x in elements)


def symmetric_group(k):
    """Sym(k) as image tuples; the product applies the left factor first."""
    elements = list(itertools.permutations(range(k)))

    def mul(a, b):
        return tuple(b[v] for v in a)

    def inv(a):
        out = [0] * k
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    return elements, mul, inv


def dihedral_group(m):
    """The dihedral group of order 2m as pairs (i, s) standing for r^i s^s."""
    elements = [(i, s) for i in range(m) for s in (0, 1)]

    def mul(a, b):
        i, s = a
        j, t = b
        return ((i + (j if s == 0 else -j)) % m, s ^ t)

    def inv(a):
        i, s = a
        return ((-i) % m, 0) if s == 0 else a

    return elements, mul, inv


def permutation_table(sigma):
    """The permutation rack whose every translation is sigma: x > y = (x)sigma."""
    n = len(sigma)
    return tuple(tuple(sigma[x] for _ in range(n)) for x in range(n))


def cycles_permutation(n, length, count):
    """count disjoint cycles (0 .. length-1)(length .. 2 length-1)...; the rest fixed."""
    moved = length * count
    return tuple(x - x % length + (x + 1) % length if x < moved else x for x in range(n))


def dense_tables():
    """(name, table) for the dense family racks of order 120 to 256."""
    return [
        ("dihedral_256", dihedral_table(ORDER)),
        ("alexander_z256_3x", alexander_table(ORDER, 3)),
        ("conj_sym5", conjugation_table(*symmetric_group(5))),
        ("conj_dih128", conjugation_table(*dihedral_group(64))),
    ]


def sparse_tables():
    """(name, table) for the permutation racks of order 256.

    All-2-cycles is the extremal case zeta = n^2/4.  Four 4-cycles leave 240
    fixed points: zeta stays far below the bound, the residual needs 2-bit
    indices, and greedy ordering is cheap because few points move.
    """
    return [
        ("all_2_cycles_256", permutation_table(cycles_permutation(ORDER, 2, ORDER // 2))),
        ("four_4_cycles_256", permutation_table(cycles_permutation(ORDER, 4, 4))),
    ]


def relabeled(named_tables, seed):
    """Relabel each table by its own permutation drawn from the seed."""
    rng = random.Random(seed)
    out = []
    for name, table in named_tables:
        phi = list(range(len(table)))
        rng.shuffle(phi)
        out.append((name, relabel(table, phi)))
    return out


def codec_inputs(workload, seed):
    """The tables a codec workload hands to the program."""
    tables = dense_tables()
    if workload == "codec-greedy":
        tables += sparse_tables()
    return relabeled(tables, seed)


def analysis_rack_table(seed):
    """The dihedral quandle of order 256, relabeled, for find_W and random subsets."""
    return relabeled([("dihedral_256", dihedral_table(ORDER))], seed)[0][1]
