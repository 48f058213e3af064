"""Exhaustive enumeration of racks of small order.

The engine assigns translation maps column by column with forward
checking: once maps y and z are both set, the map of (y)f_z is forced
to f_z^-1 f_y f_z, so conflicting branches are pruned early.  Racks are
emitted in lexicographic order of the concatenated map tuples
(f_0, ..., f_{n-1}), each exactly once.  The search runs on lexicographic
ranks of S_n and reads conjugates from a rank table.  Classes are counted
with one canonical form each: the first rack of a class marks its whole
orbit seen.  A naive full-scan oracle with no shared search code is
provided for cross-checking at tiny orders.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import AxiomReport, Rack, canonical_form, format_rack, rack_from_table
from .perms import all_permutations

MAX_ORDER = 7        # hard cap; orders above 6 are slow in practice
ORACLE_MAX_ORDER = 3

# External reference class counts, shown in reports as "reference (unverified)".
# Never asserted by tests; the in-repo oracle is the only trusted source.
REFERENCE_RACK_CLASSES = {1: 1, 2: 2, 3: 6, 4: 19, 5: 74, 6: 353}
REFERENCE_QUANDLE_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}


class OrderTooLarge(Exception):
    pass


class OrderOutOfRange(ValueError):
    """An order below 1."""


@dataclass(frozen=True)
class EnumReport:
    n: int
    labeled_count: int
    class_count: int
    quandle_class_count: int
    elapsed: float
    witnesses: tuple  # canonical tables, sorted


@functools.lru_cache(maxsize=None)
def _tables(n):
    """Rank tables of S_n, (perms, conj), built on first use of each order.

    perms lists the permutations of [n] in lexicographic order, so rank
    order is stream order; conj[r][s] is the rank of f_s^-1 f_r f_s.  Rows
    are uint16 arrays: 1 MB in all at n = 6, 50 MB at n = 7.
    """
    if not 1 <= n <= MAX_ORDER:
        raise (OrderOutOfRange if n < 1 else OrderTooLarge)(
            f"order {n} outside 1..{MAX_ORDER}")
    perms = all_permutations(n)
    a = np.array(perms, dtype=np.intp)
    inv = np.argsort(a, axis=1)
    # a map written as a base-n numeral indexes a dense table of ranks
    weights = n ** np.arange(n - 1, -1, -1)
    rank_of = np.zeros(n ** n, dtype=np.uint16)
    rank_of[a @ weights] = np.arange(len(perms))
    conj = []
    for f in a:
        # row r: x -> g[f[g^-1[x]]] for every g at once
        images = np.take_along_axis(a, f[inv], axis=1)
        conj.append(array("H", rank_of[images @ weights].tobytes()))
    return perms, conj


def _propagate(known, col, rank, perms, conj):
    """Assign rank to column col and chase forced columns; trail or None.

    On conflict the partial assignment is rolled back before returning None.
    """
    trail = []
    queue = [(col, rank)]
    n = len(known)
    while queue:
        c, p = queue.pop()
        cur = known[c]
        if cur is not None:
            if cur == p:
                continue
            for t in trail:
                known[t] = None
            return None
        known[c] = p
        trail.append(c)
        fp = perms[p]
        row = conj[p]
        for q in range(n):
            fq = known[q]
            if fq is None:
                continue
            # f_{(c)f_q} = f_q^-1 f_c f_q and f_{(q)f_c} = f_c^-1 f_q f_c; a
            # clash with a set column is caught here rather than when popped
            d, v = perms[fq][c], row[fq]
            cur = known[d]
            if cur is None:
                queue.append((d, v))
            elif cur != v:
                break
            d, v = fp[q], conj[fq][p]
            cur = known[d]
            if cur is None:
                queue.append((d, v))
            elif cur != v:
                break
        else:
            continue
        for t in trail:
            known[t] = None
        return None
    return trail


def _search(n, perms, conj, known, col):
    while col < n and known[col] is not None:
        col += 1
    if col == n:
        yield tuple(known)
        return
    for r in range(len(perms)):
        trail = _propagate(known, col, r, perms, conj)
        if trail is None:
            continue
        yield from _search(n, perms, conj, known, col + 1)
        for c in trail:
            known[c] = None


def _branch(n, rank):
    perms, conj = _tables(n)
    known = [None] * n
    if _propagate(known, 0, rank, perms, conj) is None:
        return []
    return list(_search(n, perms, conj, known, 1))


def _labeled_ranks(n, jobs):
    """Rank tuples (r_0, ..., r_{n-1}) of every rack on [n], in stream order."""
    perms, conj = _tables(n)
    jobs = min(jobs, os.cpu_count() or 1)    # a fork pool starts all workers at once
    if jobs <= 1:
        yield from _search(n, perms, conj, [None] * n, 0)
        return
    # branches over the first column are independent; merging them in first
    # column order keeps the stream identical to the serial one
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_branch, n, rank) for rank in range(len(perms))]
        for fut in futures:
            yield from fut.result()


def enumerate_labeled(n: int, jobs: int = 1):
    """Yield every rack on [n], each once, ordered by the concatenated maps."""
    perms = _tables(n)[0]
    for ranks in _labeled_ranks(n, jobs):
        yield Rack(tuple(perms[r] for r in ranks))


def enumerate_classes(n: int, jobs: int = 1) -> EnumReport:
    """Labeled stream deduplicated by whole orbits, one canonical form per class.

    The first labeled rack of each class is built with the checked Rack
    constructor, and all n! relabelings of it are marked seen: relabeling by
    phi sends r_y to out[phi[y]] = conj[r_y][rank of phi].  So every counted
    rack is either checked itself or a relabeling of a checked rack.
    """
    start = time.perf_counter()
    perms, conj = _tables(n)
    canon = {}
    seen = set()
    labeled = 0
    for ranks in _labeled_ranks(n, jobs):
        labeled += 1
        if ranks in seen:
            continue
        rack = Rack(tuple(perms[r] for r in ranks))
        canon[canonical_form(rack)] = rack.is_quandle
        rows = [conj[r] for r in ranks]
        out = [0] * n
        for k, phi in enumerate(perms):
            for y, row in enumerate(rows):
                out[phi[y]] = row[k]
            seen.add(tuple(out))
    return EnumReport(
        n=n, labeled_count=labeled, class_count=len(canon),
        quandle_class_count=sum(1 for q in canon.values() if q),
        elapsed=time.perf_counter() - start,
        witnesses=tuple(sorted(canon)),
    )


def oracle_labeled_tables(n: int) -> list:
    """Tables of every rack on [n] by brute force over all (n!)^n map tuples."""
    if not 1 <= n <= ORACLE_MAX_ORDER:
        raise (OrderOutOfRange if n < 1 else OrderTooLarge)(
            f"oracle order {n} outside 1..{ORACLE_MAX_ORDER}")
    perms = list(itertools.permutations(range(n)))
    tables = []
    for maps in itertools.product(perms, repeat=n):
        table = tuple(tuple(maps[y][x] for y in range(n)) for x in range(n))
        if not isinstance(rack_from_table(table), AxiomReport):
            tables.append(table)
    return tables


def oracle_enumerate(n: int) -> EnumReport:
    """Naive (n!)^n scan; shares only rack_from_table with the fast engine."""
    start = time.perf_counter()
    perms = list(itertools.permutations(range(n)))
    tables = oracle_labeled_tables(n)

    def relabeled(table, phi):
        psi = [0] * n
        for i, v in enumerate(phi):
            psi[v] = i
        return tuple(tuple(phi[table[psi[x]][psi[y]]] for y in range(n)) for x in range(n))

    canon = {}
    for table in tables:
        best = min(relabeled(table, phi) for phi in perms)
        if best not in canon:
            canon[best] = all(best[x][x] == x for x in range(n))
    return EnumReport(
        n=n, labeled_count=len(tables), class_count=len(canon),
        quandle_class_count=sum(1 for q in canon.values() if q),
        elapsed=time.perf_counter() - start,
        witnesses=tuple(sorted(canon)),
    )


def write_witnesses(report: EnumReport, dirpath) -> dict:
    """Write one .rack file per class plus a JSON summary; returns the summary."""
    os.makedirs(dirpath, exist_ok=True)
    for i, table in enumerate(report.witnesses):
        path = os.path.join(dirpath, f"rack_{report.n}_{i:04d}.rack")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_rack(Rack.from_table(table)))
    summary = {
        "n": report.n,
        "labeled": report.labeled_count,
        "classes": report.class_count,
        "quandle_classes": report.quandle_class_count,
        "duration_ms": round(report.elapsed * 1000, 3),
    }
    with open(os.path.join(dirpath, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
