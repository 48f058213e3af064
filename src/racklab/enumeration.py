"""Exhaustive enumeration of racks of small order.

The engine assigns translation maps column by column with forward
checking: once maps y and z are both set, the map of (y)f_z is forced
to f_z^-1 f_y f_z, so conflicting branches are pruned early.  Racks are
emitted in lexicographic order of the concatenated map tuples
(f_0, ..., f_{n-1}), each exactly once.  A naive full-scan oracle with
no shared search code is provided for cross-checking at tiny orders.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .core import AxiomReport, Rack, canonical_form, format_rack, rack_from_table
from .perms import all_permutations, conjugate

MAX_ORDER = 7        # hard cap; orders above 6 are slow in practice
ORACLE_MAX_ORDER = 3

# External reference class counts, shown in reports as "reference (unverified)".
# Never asserted by tests; the in-repo oracle is the only trusted source.
REFERENCE_RACK_CLASSES = {1: 1, 2: 2, 3: 6, 4: 19, 5: 74, 6: 353}
REFERENCE_QUANDLE_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73}


class OrderTooLarge(Exception):
    pass


@dataclass(frozen=True)
class EnumReport:
    n: int
    labeled_count: int
    class_count: int
    quandle_class_count: int
    elapsed: float
    witnesses: tuple  # canonical tables, sorted


def _propagate(known, col, perm):
    """Assign column col and chase forced columns; trail of set columns or None.

    On conflict the partial assignment is rolled back before returning None.
    """
    trail = []
    queue = [(col, perm)]
    n = len(known)
    while queue:
        c, p = queue.pop()
        cur = known[c]
        if cur is not None:
            if cur != p:
                for t in trail:
                    known[t] = None
                return None
            continue
        known[c] = p
        trail.append(c)
        for q in range(n):
            fq = known[q]
            if fq is None:
                continue
            queue.append((fq[c], conjugate(p, fq)))
            queue.append((p[q], conjugate(fq, p)))
    return trail


def _search(n, perms, known, col):
    while col < n and known[col] is not None:
        col += 1
    if col == n:
        yield tuple(known)
        return
    for p in perms:
        trail = _propagate(known, col, p)
        if trail is None:
            continue
        yield from _search(n, perms, known, col + 1)
        for c in trail:
            known[c] = None


def _branch(n, rank):
    perms = all_permutations(n)
    known = [None] * n
    if _propagate(known, 0, perms[rank]) is None:
        return []
    return list(_search(n, perms, known, 1))


def enumerate_labeled(n: int, jobs: int = 1):
    """Yield every rack on [n], each once, ordered by the concatenated maps."""
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(f"order {n} outside 1..{MAX_ORDER}")
    perms = all_permutations(n)
    if jobs <= 1:
        known = [None] * n
        for maps in _search(n, perms, known, 0):
            yield Rack(maps)
        return
    # branches over the first column are independent; merging them in first
    # column order keeps the stream identical to the serial one
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_branch, n, rank) for rank in range(len(perms))]
        for fut in futures:
            for maps in fut.result():
                yield Rack(maps)


def enumerate_classes(n: int, jobs: int = 1) -> EnumReport:
    """Labeled stream deduplicated through canonical forms."""
    start = time.perf_counter()
    canon = {}
    labeled = 0
    for rack in enumerate_labeled(n, jobs=jobs):
        labeled += 1
        key = canonical_form(rack)
        if key not in canon:
            canon[key] = rack.is_quandle
    return EnumReport(
        n=n, labeled_count=labeled, class_count=len(canon),
        quandle_class_count=sum(1 for q in canon.values() if q),
        elapsed=time.perf_counter() - start,
        witnesses=tuple(sorted(canon)),
    )


def oracle_labeled_tables(n: int) -> list:
    """Tables of every rack on [n] by brute force over all (n!)^n map tuples."""
    if not 1 <= n <= ORACLE_MAX_ORDER:
        raise OrderTooLarge(f"oracle order {n} outside 1..{ORACLE_MAX_ORDER}")
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
