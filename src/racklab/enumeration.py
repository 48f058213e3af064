"""Exhaustive enumeration of racks of small order.

The engine assigns translation maps column by column with forward
checking: once maps y and z are both set, the map of (y)f_z is forced
to f_z^-1 f_y f_z, so conflicting branches are pruned early.  Racks are
emitted in lexicographic order of the concatenated map tuples
(f_0, ..., f_{n-1}), each exactly once.  The search runs on lexicographic
ranks of S_n and reads conjugates from a rank table; at each free column
one numpy pass over all ranks drops those that clash with a set column
before forward checking starts.

Classes are counted without the labeled stream, by a search that breaks
symmetry down a stabiliser chain (the lex-leader rule).  A relabeling that
fixes 0 conjugates f_0 inside Stab(0), so every class has a rack whose f_0
is the first permutation of its key (cycle type, length of 0's cycle); the
search runs from those first columns only.  Further down, G_c holds the
relabelings that fix 0..c-1 and commute with f_0..f_{c-1}; those that also
fix c keep columns 0..c-1 and conjugate f_c, so a branch whose f_c is not
the least of those conjugates is dropped, whether f_c was chosen or
forced.  The least relabeled tuple of each class is never dropped, while
the labeled stream is not pruned at all.  Each output's orbit key is
the least of its n! relabeled rank tuples, read ORBIT_ENTRIES ranks at a
time from the rank table, and the number of tuples equal to it is |Aut|.
Outputs are checked in stacks by core._rack_rows; only one that fails goes
to the checked Rack constructor, for its NotARackError.  The witnesses, the
least tables, build whole tables only for relabelings with the least row 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Rack, _canonical_tables, _rack_rows, format_rack
from .perms import all_permutations

MAX_ORDER = 7        # hard cap: the rank table is (n!)^2 entries, 50 MB at n = 7
ORBIT_BATCH = 64     # search outputs checked per numpy batch by enumerate_labeled
ORBIT_ENTRIES = 1 << 19  # relabeled ranks (outputs x n! x n) enumerate_classes dedupes at once

# External reference class counts, shown in reports as "reference (unverified)".
# Never asserted by tests; the brute-force oracle in tests/_reference.py is the
# trusted source.
REFERENCE_RACK_CLASSES = {1: 1, 2: 2, 3: 6, 4: 19, 5: 74, 6: 353, 7: 2080}
REFERENCE_QUANDLE_CLASSES = {1: 1, 2: 1, 3: 3, 4: 7, 5: 22, 6: 73, 7: 298}


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
    order is stream order; conj[r, s] is the rank of f_s^-1 f_r f_s, in
    one uint16 array: 1 MB at n = 6, 50 MB at n = 7.
    """
    if not 1 <= n <= MAX_ORDER:
        raise (OrderOutOfRange if n < 1 else OrderTooLarge)(
            f"order {n} outside 1..{MAX_ORDER}")
    perms = all_permutations(n)
    a = np.array(perms, dtype=np.intp)
    # a map written as a base-n numeral indexes a dense table of ranks
    weights = n ** np.arange(n - 1, -1, -1)
    rank_of = np.zeros(n ** n, dtype=np.uint16)
    rank_of[a @ weights] = np.arange(len(perms))
    place = weights[a]      # place[g, y]: the weight of digit g[y]
    conj = np.empty((len(perms), len(perms)), dtype=np.uint16)
    for r, f in enumerate(a):
        # row r: x -> g[f[g^-1[x]]] for every g at once; with x = g[y], the
        # numeral is the sum over y of g[f[y]] times the weight of g[y]
        conj[r] = rank_of[np.einsum("gy,gy->g", a[:, f], place)]
    conj.flags.writeable = False
    return perms, conj


@functools.lru_cache(maxsize=None)
def _rows(n):
    """The rows of the rank table as memoryviews, which index to Python ints."""
    return [memoryview(row) for row in _tables(n)[1]]


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


@functools.lru_cache(maxsize=None)
def _maps(n):
    """maps[r] = the map of rank r, as one int32 (n!, n) array."""
    return np.array(_tables(n)[0], dtype=np.int32)


@functools.lru_cache(maxsize=None)
def _images(n):
    """images[q, r] = (q)f_r, one contiguous row per point q."""
    return np.ascontiguousarray(_maps(n).T, dtype=np.intp)


def _candidates(n, known):
    """Ranks r that pass _propagate's first checks at a free column.

    For every set column q whose image (q)f_r is set, the conjugation rule
    needs f_{(q)f_r} = f_r^-1 f_q f_r, which has rank conj[f_q, r]; numpy
    tests that for all r at once, and _propagate does the rest.
    """
    images, conj = _images(n), _tables(n)[1]
    ranks = np.array([-1 if r is None else r for r in known])
    ok = np.ones(len(conj), dtype=bool)
    for q, fq in enumerate(known):
        if fq is not None:
            found = ranks[images[q]]
            ok &= (found < 0) | (found == conj[fq])
    return np.flatnonzero(ok).tolist()


def _search(n, perms, conj, known, col, group):
    """Complete known from column col on; group is G_col, or [] for no pruning."""
    while col < n and (fc := known[col]) is not None:
        if group:
            # G_{col+1}: the part of G_col that fixes col and keeps f_col; one
            # that fixes col and lowers f_col gives a smaller relabeled tuple
            row, kept = conj[fc], []
            for g in group:
                if perms[g][col] == col:
                    if row[g] < fc:
                        return
                    if row[g] == fc:
                        kept.append(g)
            group = kept
        col += 1
    if col == n:
        yield tuple(known)
        return
    for r in _candidates(n, known):
        trail = _propagate(known, col, r, perms, conj)
        if trail is None:
            continue
        yield from _search(n, perms, conj, known, col, group)
        for c in trail:
            known[c] = None


def _branch(n, rank, prune):
    """Rank tuples of the racks whose f_0 has this rank, in stream order;
    with prune, only those whose maps are least down the stabiliser chain."""
    perms, conj = _tables(n)[0], _rows(n)
    known = [None] * n
    if _propagate(known, 0, rank, perms, conj) is None:
        return []
    group = [g for g in range(math.factorial(n - 1)) if conj[rank][g] == rank] if prune else []
    return list(_search(n, perms, conj, known, 1, group))


def _branches(n, ranks, jobs, prune):
    """_branch over each first-column rank in ranks, concatenated in order."""
    jobs = min(jobs, os.cpu_count() or 1)    # a fork pool starts all workers at once
    if jobs <= 1:
        for rank in ranks:
            yield from _branch(n, rank, prune)
        return
    # branches are independent; merging them in rank order keeps the serial order
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_branch, n, rank, prune) for rank in ranks]
        for fut in futures:
            yield from fut.result()


def enumerate_labeled(n: int, jobs: int = 1):
    """Yield every rack on [n], each once, ordered by the concatenated maps.
    Outputs are checked ORBIT_BATCH at a time; each rack keeps its rows of the
    read-only block, and the first that fails raises from Rack(rows)."""
    maps = _maps(n)
    outputs = _branches(n, range(len(maps)), jobs, False)
    while batch := list(itertools.islice(outputs, ORBIT_BATCH)):
        block = maps[np.array(batch, dtype=np.intp)]
        block.flags.writeable = False
        for rows, ok in zip(block, _rack_rows(block).tolist()):
            yield Rack._unchecked(rows) if ok else Rack(rows)


def _key_ranks(n):
    """The least rank of each key (cycle type, length of 0's cycle), ascending.

    Two maps share a key iff they are conjugate by a permutation fixing 0,
    and those permutations have the first (n-1)! ranks.
    """
    return sorted(set(_tables(n)[1][:, :math.factorial(n - 1)].min(axis=1).tolist()))


def _lexmin_rows(a):
    """Mask over a's second-to-last axis of the rows equal to the least row.

    Rows compare lexicographically along the last axis; leading axes are
    independent batches.  Entries must be below the dtype's maximum.
    """
    keep = np.ones(a.shape[:-1], dtype=bool)
    top = np.iinfo(a.dtype).max
    for col in np.moveaxis(a, -1, 0):
        col = np.where(keep, col, top)
        keep &= col == col.min(axis=-1, keepdims=True)
    return keep


@functools.lru_cache(maxsize=None)
def _relabel_cells(n):
    """cells[k, x] = N phi_k^-1[x] + k over the N permutations phi_k of [n].

    Read in the n rows of conj that a rank tuple selects, laid end to end,
    cell [k, x] is position x of the tuple relabeled by phi_k.
    """
    perms = _maps(n)
    return len(perms) * np.argsort(perms, axis=1) + np.arange(len(perms))[:, None]


def _orbits(n, batch):
    """(keys, auts): the orbit key and |Aut| of each rank tuple in batch.

    Relabeling by the k-th permutation phi moves rank r_y to conj[r_y, k]
    at position phi[y], so position x of the k-th relabeled tuple reads
    conj[r_{phi^-1[x]}, k]: one gather of the tuple's n rows of conj, then
    one take through _relabel_cells.  The key is the least relabeled tuple,
    and the relabelings that reach it form a coset of Aut.
    """
    rows = _tables(n)[1][np.asarray(batch, dtype=np.intp)].reshape(len(batch), -1)
    relabeled = np.take(rows, _relabel_cells(n), axis=1)
    least = _lexmin_rows(relabeled)
    return relabeled[np.arange(len(batch)), least.argmax(axis=1)], least.sum(axis=1)


def enumerate_classes(n: int, jobs: int = 1) -> EnumReport:
    """One witness per isomorphism class, from the key-rank branches only.

    The search outputs are deduplicated by orbit key in batches.  The first
    output of each class is checked and canonicalised with the others in one
    stack, which gives the witnesses.  The labeled count is the sum of
    n!/|Aut| over the classes.
    """
    start = time.perf_counter()
    found = {}  # orbit key -> (first rank tuple, |Aut|)
    outputs = _branches(n, _key_ranks(n), jobs, True)
    while batch := list(itertools.islice(outputs, max(1, ORBIT_ENTRIES // math.factorial(n) // n))):
        for ranks, key, aut in zip(batch, *_orbits(n, batch)):
            found.setdefault(key.tobytes(), (ranks, int(aut)))
    maps = _maps(n)[np.array([ranks for ranks, _ in found.values()])]
    for rows in maps[~_rack_rows(maps)]:
        Rack(rows)    # raises the NotARackError of the first that fails
    quandle = (np.diagonal(maps, axis1=1, axis2=2) == np.arange(n)).all(axis=1)
    tables = [tuple(map(tuple, t)) for t in _canonical_tables(maps).tolist()]
    canon = dict(zip(tables, quandle.tolist()))
    return EnumReport(
        n=n, labeled_count=sum(math.factorial(n) // aut for _, aut in found.values()),
        class_count=len(canon), quandle_class_count=sum(canon.values()),
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
