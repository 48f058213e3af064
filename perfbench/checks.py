"""Correctness checks made apart from the program.

Each check recomputes what it needs from the benchmark's own code, from
the README's format description or from published values, and raises
CheckFailed with a short reason when the program's output disagrees.
Nothing here imports racklab, so a fault in the program cannot hide
itself by also breaking its check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

MAGIC = b"RKE1"

# README "Conformance vector": encode(trivial_rack(3)) with default parameters.
CONFORMANCE_TABLE = ((0, 0, 0), (1, 1, 1), (2, 2, 2))
CONFORMANCE_BYTES = bytes.fromhex("524b4531000300040002f0e1c3840000")

# Isomorphism classes of racks and of quandles of order n (Vendramin 2012,
# "On the classification of quandles of low order"; OEIS A181771 and A181769).
PUBLISHED_CLASSES = {1: (1, 1), 2: (2, 1), 3: (6, 3), 4: (19, 7), 5: (74, 22)}


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# rack axioms

def is_rack(table) -> bool:
    """Bijective columns and (x > y) > z == (x > z) > (y > z) for all x, y, z."""
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    if t.shape != (n, n) or t.min() < 0 or t.max() >= n:
        return False
    cols = np.sort(t, axis=0)
    if not (cols == np.arange(n)[:, None]).all():
        return False
    for z in range(n):
        col = t[:, z]
        if not (col[t] == t[np.ix_(col, col)]).all():
            return False
    return True


def automorphism_count(table) -> int:
    """|Aut(R)| by brute force over all relabelings; small orders only."""
    n = len(table)
    return sum(1 for phi in itertools.permutations(range(n))
               if all(phi[table[x][y]] == table[phi[x]][phi[y]]
                      for x in range(n) for y in range(n)))


def minimal_relabeling(table):
    """The lexicographically least table over all relabelings; small orders only."""
    n = len(table)
    best = None
    for phi in itertools.permutations(range(n)):
        psi = [0] * n
        for i, v in enumerate(phi):
            psi[v] = i
        cand = tuple(tuple(phi[table[psi[x]][psi[y]]] for y in range(n)) for x in range(n))
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# codec: an independent encoder for the README's RKE1 layout.  Given the
# greedy colour list T (the one choice the format leaves to the encoder),
# every other bit of the stream follows from the table.

def uint_width(count: int) -> int:
    return (count - 1).bit_length()


def lehmer_rank(perm) -> int:
    p = np.asarray(perm)
    smaller = np.triu(p[None, :] < p[:, None], 1).sum(axis=1).tolist()
    n = len(smaller)
    rank = 0
    for i, s in enumerate(smaller):
        rank = rank * (n - i) + s
    return rank


def read_t_order(data: bytes, n: int) -> tuple:
    """The greedy colour list T, read through fields 1-3 of the stream."""
    bits = _bit_string(data[10:])
    low_count = bits[:n].count("1")
    pos = n + (n - low_count) * uint_width(math.factorial(n))
    width = uint_width(n + 1)
    t_len = int(bits[pos:pos + width], 2)
    pos += width
    w_vertex = uint_width(n)
    return tuple(int(bits[pos + i * w_vertex:pos + (i + 1) * w_vertex], 2)
                 for i in range(t_len))


def _bit_string(data: bytes) -> str:
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b") if data else ""


def _components(n, maps, colours):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in colours:
        for u, v in enumerate(maps[c]):
            if u != v:
                parent[find(u)] = find(v)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values(), key=min)


def expected_encoding(table, delta, cap_l, t_order):
    """RKE1 bytes for this table and T, built from the README alone.

    Returns (bytes, header_bits, residual_bits, parts, bitmap_bits) where
    parts are the T-graph components and bitmap_bits the bits of the field 4
    and field 7 domain bitmaps.
    """
    n = len(table)
    maps = [tuple(table[x][y] for x in range(n)) for y in range(n)]
    out_degree = [len({table[v][j] for j in range(n)} - {v}) for v in range(n)]
    s_low = [v for v in range(n) if out_degree[v] <= delta]
    s_high = [v for v in range(n) if out_degree[v] > delta]
    require(len(t_order) == min(cap_l, len(s_low)), "field 3: |T| is not min(cap_l, |S|)")
    require(len(set(t_order)) == len(t_order) and set(t_order) <= set(s_low),
            "field 3: T is not a set of low-degree colours")
    w_vertex = uint_width(n)
    w_perm = uint_width(math.factorial(n))
    chunks = []

    def put(value, width):
        if width:
            chunks.append(format(value, f"0{width}b"))

    def bitmap(members, size):
        members = set(members)
        chunks.append("".join("1" if i in members else "0" for i in range(size)))

    bitmap(s_low, n)                                       # field 1
    for v in s_high:                                       # field 2
        put(lehmer_rank(maps[v]), w_perm)
    put(len(t_order), uint_width(n + 1))                   # field 3
    for v in t_order:
        put(v, w_vertex)
    t_sorted = sorted(t_order)
    for j in range(n):                                     # field 4
        bitmap(t_sorted, n)
        for i in t_sorted:
            put(maps[j][i], w_vertex)
    t_plus = sorted(set(t_order) | {maps[j][v] for v in t_order for j in range(n)})
    for k in t_plus:                                       # field 5
        put(lehmer_rank(maps[k]), w_perm)
    parts = _components(n, maps, t_order)
    where = [0] * n
    for ci, part in enumerate(parts):
        for v in part:
            where[v] = ci
    rest = [j for j in s_low if j not in t_order]
    merged = {}
    for j in rest:                                         # field 6
        crossing = set()
        for u, v in enumerate(maps[j]):
            if where[u] != where[v]:
                crossing.update((where[u], where[v]))
        merged[j] = sorted(crossing)
        bitmap(merged[j], len(parts))
    for j in rest:                                         # field 7
        block = sorted(v for ci in merged[j] for v in parts[ci])
        bitmap(block, n)
        for v in block:
            put(maps[j][v], w_vertex)
    header_bits = sum(len(c) for c in chunks)
    known = set(s_high) | set(t_plus)
    for part in parts:                                     # field 8, the residual
        v = part[0]
        if v in known:
            continue
        skip = set(merged[v])
        for di, dpart in enumerate(parts):
            if di not in skip:
                put(dpart.index(maps[v][dpart[0]]), uint_width(len(dpart)))
    bits = "".join(chunks)
    residual_bits = len(bits) - header_bits
    bits += "0" * (-len(bits) % 8)
    body = int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""
    head = MAGIC + n.to_bytes(2, "big") + delta.to_bytes(2, "big") + cap_l.to_bytes(2, "big")
    bitmap_bits = n * n + n * len(rest)
    return head + body, header_bits, residual_bits, parts, bitmap_bits


def zeta(parts):
    """(sum_p eta_p/p)(sum_q eta_q log2(q)/q), exact when every size is a power of 2."""
    sizes = [len(p) for p in parts]
    if all(s & (s - 1) == 0 for s in sizes):
        return len(sizes) * sum(Fraction(s.bit_length() - 1) for s in sizes)
    return len(sizes) * sum(math.log2(s) for s in sizes)


def check_stream(table, data, delta, cap_l, stats, zeta_extremal):
    """Every codec property of one encoding; returns the bitmap bits it spends."""
    n = len(table)
    require(data[:4] == MAGIC, "header: bad magic")
    require(data[4:10] == n.to_bytes(2, "big") + delta.to_bytes(2, "big")
            + cap_l.to_bytes(2, "big"), "header: n, delta or cap_l differ")
    require(len(data) == 10 + math.ceil((stats.header_bits + stats.residual_bits) / 8),
            "stream length disagrees with header_bits + residual_bits")
    t_order = read_t_order(data, n)
    want, header_bits, residual_bits, parts, bitmap_bits = expected_encoding(
        table, delta, cap_l, t_order)
    require(stats.header_bits == header_bits, "header_bits differs from the README layout")
    require(stats.residual_bits == residual_bits,
            "residual_bits differs from the README layout")
    require(data == want, "stream differs from the README layout")
    z = zeta(parts)
    bound = Fraction(n * n, 4)
    require(z <= bound + Fraction(1, 10**9), f"zeta {float(z)} exceeds n^2/4")
    require((z == bound) == zeta_extremal,
            f"zeta {float(z)} {'misses' if zeta_extremal else 'reaches'} n^2/4")
    require(math.isclose(stats.zeta, float(z), rel_tol=1e-9, abs_tol=1e-9),
            "reported zeta differs from the component sizes")
    return bitmap_bits


# ---------------------------------------------------------------------------
# enumeration

def check_class_report(n, report, labeled_expected):
    """Counts against the published values and the orbit-counting sum."""
    classes, quandles = PUBLISHED_CLASSES[n]
    require(report.class_count == classes,
            f"n={n}: {report.class_count} classes, published {classes}")
    require(report.quandle_class_count == quandles,
            f"n={n}: {report.quandle_class_count} quandle classes, published {quandles}")
    require(report.labeled_count == labeled_expected,
            f"n={n}: {report.labeled_count} labeled racks, sum of n!/|Aut| is "
            f"{labeled_expected}")
    require(len(report.witnesses) == classes, f"n={n}: witness count")


def labeled_count_from_classes(witnesses):
    """Sum of n!/|Aut(R)| over class representatives, after checking them.

    Each representative must be a rack, its own minimal relabeling (so no two
    are isomorphic), and they must come sorted.
    """
    require(list(witnesses) == sorted(set(witnesses)), "witnesses not sorted or repeated")
    total = 0
    for table in witnesses:
        n = len(table)
        require(is_rack(table), "witness is not a rack")
        require(minimal_relabeling(table) == table, "witness is not in canonical form")
        total += math.factorial(n) // automorphism_count(table)
    return total


def check_labeled_stream(n, stream):
    """Every emitted rack is a rack, and the stream strictly increases.

    stream yields map tuples (f_0, ..., f_{n-1}); returns how many.
    """
    count = 0
    previous = None
    for maps in stream:
        flat = tuple(itertools.chain.from_iterable(maps))
        require(previous is None or flat > previous, "stream is not strictly increasing")
        previous = flat
        table = tuple(tuple(maps[y][x] for y in range(n)) for x in range(n))
        require(is_rack(table), f"emitted table {table} is not a rack")
        count += 1
    return count


# ---------------------------------------------------------------------------
# analysis

def binomial_tail(n, p, accept):
    """P(accept(X)) for X ~ Binomial(n, p), summed exactly term by term."""
    return sum(math.comb(n, k) * p ** k * (1 - p) ** (n - k)
               for k in range(n + 1) if accept(k))


def within_standard_errors(estimate, exact, trials, how_many=4):
    se = math.sqrt(exact * (1 - exact) / trials)
    return abs(estimate - exact) <= how_many * se + 1e-12


def check_zeta_sweep(report, n):
    stat = report["statistic"]
    two_only = [0] * n
    two_only[1] = n
    require(report["params"]["mode"] == "exhaustive", "sweep was not exhaustive")
    require(report["params"]["count"] == math.comb(2 * n - 1, n - 1),
            "sweep did not visit every composition of n")
    require(stat["max_zeta"] == n * n / 4, f"sweep max {stat['max_zeta']} is not n^2/4")
    require(stat["equality_cases"] == [two_only], "equality not reached by the all-2 case alone")
    require(report["pass"] is True, "sweep reports a failure")


def check_chernoff(report, n, p, eps, trials):
    mean = n * p
    upper = binomial_tail(n, p, lambda k: k >= (1 + eps) * mean)
    lower = binomial_tail(n, p, lambda k: k <= (1 - eps) * mean)
    stat = report["statistic"]
    require(within_standard_errors(stat["upper_tail"], upper, trials),
            f"upper tail {stat['upper_tail']} is not within 4 SE of {upper}")
    require(within_standard_errors(stat["lower_tail"], lower, trials),
            f"lower tail {stat['lower_tail']} is not within 4 SE of {lower}")


def check_random_subset(report, n, p, eps, trials):
    size_tail = binomial_tail(n, p, lambda k: k >= (1 + eps) * n * p)
    est = report["statistic"]["size_tail"]
    require(within_standard_errors(est, size_tail, trials),
            f"subset size tail {est} is not within 4 SE of {size_tail}")
    require(report["pass"] is True, "random-subset check reports a failure")


def check_find_w(result, n):
    require(result.certified and result.maps_match, "find_W did not certify")
    require(all(0 <= v < n for v in result.w) and list(result.w) == sorted(set(result.w)),
            "W is not a sorted subset of the ground set")
