"""Shared builders for the test corpus: family racks, random tables, relabelings."""

from __future__ import annotations

import math
import random

import numpy as np

from racklab import (CodecParams, Rack, alexander_quandle, conjugation_quandle,
                     cyclic_group_table, dihedral_group_table, dihedral_quandle,
                     permutation_rack, symmetric_group_table, trivial_rack)
from racklab.core import table_order
from racklab.perms import is_permutation

from _reference import identity


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


def direct_product_table(t1, t2):
    """Multiplication table of the direct product, pairs ordered (a, b) -> a*len(t2)+b."""
    n1, n2 = table_order(t1), table_order(t2)
    def mul(x, y):
        a1, b1 = divmod(x, n2)
        a2, b2 = divmod(y, n2)
        return t1[a1][a2] * n2 + t2[b1][b2]
    return tuple(tuple(mul(x, y) for y in range(n1 * n2)) for x in range(n1 * n2))


def is_subrack(rack: Rack, subset) -> bool:
    """True iff the subset is closed under the operation."""
    table = rack.table
    return all(table[z][y] in subset for y in subset for z in subset)


def family_racks(max_n: int = 8):
    """(name, rack) pairs from the standard families up to order max_n."""
    racks = []
    for n in range(1, max_n + 1):
        racks.append((f"trivial_{n}", trivial_rack(n)))
    for n in range(2, max_n + 1):
        racks.append((f"dihedral_{n}", dihedral_quandle(n)))
    for n in range(1, max_n + 1):
        racks.append((f"conj_c{n}", conjugation_quandle(cyclic_group_table(n))))
    if max_n >= 6:
        racks.append(("conj_s3", conjugation_quandle(symmetric_group_table(3))))
    if max_n >= 8:
        racks.append(("conj_d4", conjugation_quandle(dihedral_group_table(4))))
    # Alexander quandles over Z_n with tau = multiplication by a unit
    for n, a in ((3, 2), (4, 3), (5, 2), (5, 3), (6, 5), (7, 3), (8, 3), (8, 5)):
        if n > max_n:
            continue
        tau = tuple(a * x % n for x in range(n))
        racks.append((f"alexander_z{n}_{a}x", alexander_quandle(cyclic_group_table(n), tau)))
    if max_n >= 4:
        klein = direct_product_table(cyclic_group_table(2), cyclic_group_table(2))
        racks.append(("alexander_klein_swap", alexander_quandle(klein, (0, 2, 1, 3))))
    for n in range(2, max_n + 1, 2):
        pairing = from_cycles(n, [(i, i + 1) for i in range(0, n, 2)])
        racks.append((f"involution_{n}", permutation_rack(pairing)))
    if max_n >= 5:
        racks.append(("cycle_5", permutation_rack(from_cycles(5, [tuple(range(5))]))))
    if max_n >= 7:
        racks.append(("cycle_7", permutation_rack(from_cycles(7, [tuple(range(7))]))))
    # several components of size >= 3 force residual indices of width >= 2 and
    # multi-step image propagation in the decoder
    if max_n >= 6:
        racks.append(("three_cycles_6",
                      permutation_rack(from_cycles(6, [(0, 1, 2), (3, 4, 5)]))))
    if max_n >= 8:
        racks.append(("mixed_8",
                      permutation_rack(from_cycles(8, [(0, 1, 2, 3), (4, 5), (6, 7)]))))
    return racks


def commuting_rack(n: int, seed: int) -> Rack:
    """A seeded commuting rack of order n.

    [n] splits into A = {0..m-1}, m = 3 * (n // 6), and B, the rest.  f_a is
    the identity for a in A; each f_b fixes B and applies an independent
    power 0, 1 or 2 of each fixed 3-cycle (0 1 2)(3 4 5)... on A.  It is a
    rack: (x)f_y stays in x's half, so either f_{(x)f_y} = id = f_y^-1 id f_y,
    or (x)f_y = x and f_x commutes with f_y.  Its graph has many 3-vertex
    components, which the greedy merges over several picks.
    """
    rng = random.Random(seed)
    m = n // 6 * 3
    maps = [identity(n)] * m
    for _ in range(m, n):
        images = list(range(n))
        for start in range(0, m, 3):
            power = rng.randrange(3)
            for i in range(3):
                images[start + i] = start + (i + power) % 3
        maps.append(tuple(images))
    return Rack(maps)


def pair_swap_rack(n: int, seed: int, quandle: bool = False) -> Rack:
    """A seeded rack at the paper's lower bound, 2^{k^2} of them for k = n // 2.

    The pairs {2j, 2j+1} are the orbits.  A mask M_j in {0,1}^k per pair
    gives f_{2j} = f_{2j+1} = the product of the transpositions (2i 2i+1)
    over the i with M_j[i] = 1, and f_{n-1} = id when n is odd.  All the
    maps commute and are constant on the pairs, which each map preserves,
    so f_{(x)f_y} = f_x = f_y^-1 f_x f_y.  With M_j[j] = 0 every f_x fixes
    x: a quandle.
    """
    rng = random.Random(seed)
    k = n // 2
    maps = []
    for j in range(k):
        images = list(range(n))
        for i in range(k):
            if rng.randrange(2) and not (quandle and i == j):
                images[2 * i], images[2 * i + 1] = 2 * i + 1, 2 * i
        maps += [tuple(images)] * 2
    return Rack(maps + [identity(n)] * (n % 2))


def unchecked_non_rack() -> Rack:
    """A permutation family that is not a rack, built without the axiom check.

    f_0 = (0 1), f_1 = (0 2), f_2 = id: vertex 0 has out-degree 2, so with
    delta = 1 the low set is {1, 2}, T = (1,), and f_0 sends 1 to the
    high-degree vertex 0.
    """
    maps = np.array(((1, 0, 2), (2, 1, 0), (0, 1, 2)), dtype=np.int32)
    maps.flags.writeable = False
    return Rack._unchecked(maps)


def broadcast_trivial_rack(n: int) -> Rack:
    """The trivial rack of order n, built without the axiom check on a
    zero-stride read-only view of one identity row: no n^2 memory."""
    return Rack._unchecked(np.broadcast_to(np.arange(n, dtype=np.int32), (n, n)))


def param_grid(n: int):
    """Parameter choices that exercise all parts of the information tuple."""
    grid = [CodecParams.default(n)]
    if n >= 2:
        grid += [CodecParams(1, 1), CodecParams(1, 0), CodecParams(2, 2),
                 CodecParams(max(1, n // 2), 1)]
    return grid


def random_table(rng, n: int):
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))


def random_relabeling(rng, rack: Rack) -> Rack:
    phi = list(range(rack.n))
    rng.shuffle(phi)
    return rack.relabel(tuple(phi))


def orbit_closure(n: int, perms, seed_vertices=None):
    """Orbit partition by repeated application of the maps and their inverses.

    Independent of the union-find component code; used as an oracle.
    """
    inverses = []
    for p in perms:
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        inverses.append(tuple(inv))
    remaining = set(range(n) if seed_vertices is None else seed_vertices)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for p in list(perms) + inverses:
                y = p[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        orbits.append(tuple(sorted(orbit)))
        remaining -= orbit
    return tuple(sorted(orbits, key=min))


def ceil_log2(k: int) -> int:
    return (k - 1).bit_length() if k > 1 else 0


def zeta_reference(eta) -> float:
    inv = sum(e / q for q, e in enumerate(eta, start=1))
    logs = sum(e * math.log2(q) / q for q, e in enumerate(eta, start=1))
    return inv * logs
