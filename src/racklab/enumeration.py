"""Exhaustive enumeration of racks of small order.

The engine assigns translation maps column by column with forward
checking: once maps y and z are both set, the map of (y)f_z is forced
to f_z^-1 f_y f_z, so conflicting branches are pruned early.  Racks are
emitted in lexicographic order of the concatenated map tuples
(f_0, ..., f_{n-1}), each exactly once.  The search runs on lexicographic
ranks of S_n and reads conjugates from a rank table; at each free column
one numpy pass over all ranks drops those that clash with a set column or
with the column's own rule, f_{(col)f_r} = f_r, before forward checking.

Classes are counted without the labeled stream, by a search that breaks
symmetry down a stabiliser chain (the lex-leader rule): every class has a
rack whose f_0 is the first permutation of its key (cycle type, length of
0's cycle), and a branch is dropped once a relabeling that fixes 0..c and
commutes with f_0..f_{c-1} makes f_c smaller, whether f_c was chosen or
forced; the least relabeled tuple of each class survives.  Outputs are
deduplicated over one key coset each: the relabelings phi with phi[y] = 0
that give f_y its least rank, over the points y that an isomorphism-
invariant rule picks; the least tuple they reach is the orbit key, and
|Aut| of them reach it.  Outputs are checked in stacks by core._rack_rows;
only one that fails goes to the checked Rack.  The witnesses build whole
tables only for relabelings with the least row 0.
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
ORBIT_ENTRIES = 1 << 16  # relabeled ranks (coset rows x n) enumerate_classes dedupes at once

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


def _candidates(n, known, col):
    """Ranks r that pass _propagate's first checks at the free column col.

    The rule f_{(q)f_r} = f_r^-1 f_q f_r, of rank conj[f_q, r], is tested by
    numpy for all r at once at each set column q whose image (q)f_r is set.
    At col it reads f_{(col)f_r} = f_r, so (col)f_r must be free: a set column
    d there has f_d != f_r, as f_d = f_r would have set col, on d's f_r-cycle.
    """
    images, conj = _images(n), _tables(n)[1]
    ranks = np.array([-1 if r is None else r for r in known])
    ok = ranks[images[col]] < 0
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
    for r in _candidates(n, known, col):
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
    """The least rank of each key (cycle type, length of 0's cycle), ascending."""
    return sorted(set(_cosets(n)[0].tolist()))


@functools.lru_cache(maxsize=None)
def _cosets(n):
    """(low, swapped, start, sigma, comp, inverse): the key cosets of S_n.

    A relabeling phi with phi[y] = 0 is t_y, the swap of 0 and y, then a sigma
    fixing 0 (the first (n-1)! ranks), and comp[y, sigma] is its rank.  t_y
    takes f_r to rank s = swapped[r, y], and the sigma[start[s]:start[s + 1]]
    take f_s to its least rank low[s]: the key coset of (r, y), a coset of
    Stab(y) in the centraliser of f_r.  inverse[k] inverts permutation k."""
    conj, maps = _tables(n)[1], _maps(n)
    fix = math.factorial(n - 1)
    block = conj[:, :fix]
    low = block.min(axis=1)
    s, sigma = np.divmod(np.concatenate([    # a slice of rows at a time
        np.flatnonzero(block[i:i + 1024] == low[i:i + 1024, None]) + i * fix
        for i in range(0, len(conj), 1024)]), fix)
    weights = n ** np.arange(n - 1, -1, -1)
    codes = maps @ weights    # base-n codes, ascending as ranks are lexicographic
    # sigma after t_y sends 0 to sigma[y] and y to sigma[0] = 0
    comp = np.searchsorted(codes, codes[:fix] + maps[:fix].T * (weights[0] - weights)[:, None])
    return (low, conj[:, comp[:, 0]], np.searchsorted(s, np.arange(len(conj) + 1)),
            sigma.astype(conj.dtype), comp.astype(conj.dtype),
            (maps[:, :, None] == np.arange(n)).argmax(axis=1).astype(np.uint8))


def _coset_orbits(n, outputs):
    """Yield (ranks, orbit key, |Aut|) for each rank tuple in outputs.

    The least ranks c_y = low[swapped[r_y, y]] move with the points under
    relabeling, so kappa, the c_y with the fewest coset rows over its points
    (then the least), is an invariant.  The key is the least tuple relabeled
    by those rows, a union of cosets of Aut, so |Aut| of them reach it.
    Outputs are read ORBIT_ENTRIES // n^2 at a time, rows ORBIT_ENTRIES // n.
    """
    low, swapped, start, sigma, comp, inverse = _cosets(n)
    conj, points, sizes = _tables(n)[1], np.arange(n), np.diff(start)
    per = 62 // len(conj).bit_length()    # ranks per int64 word, in base N
    outputs = iter(outputs)
    while chunk := list(itertools.islice(outputs, ORBIT_ENTRIES // n // n)):
        ranks = np.array(chunk, dtype=np.intp)
        s = swapped[ranks, points]
        c, size = low[s], sizes[s]
        # the coset rows over the points that share c_y, then c_y, in one number
        order = ((c[:, :, None] == c[:, None, :]) @ size[:, :, None])[:, :, 0] * len(conj) + c
        best = order.min(axis=1)
        total = best // len(conj)
        # a batch starts at the first output whose rows start in the next block
        block = (np.cumsum(total) - total) * n // ORBIT_ENTRIES
        firsts = np.flatnonzero(np.diff(block, prepend=-1)).tolist()
        for lo, hi in itertools.pairwise([*firsts, len(chunk)]):
            owner, y = np.nonzero(order[lo:hi] == best[lo:hi, None])
            owner += lo
            lens = size[owner, y]
            at = np.repeat(start[s[owner, y]] + lens - lens.cumsum(), lens) + np.arange(lens.sum())
            phi = comp[np.repeat(y, lens), sigma[at]]
            # position x of the tuple relabeled by phi reads conj[r_{phi^-1[x]}, phi]
            out = conj[ranks[np.repeat(owner, lens)[:, None], inverse[phi]], phi[:, None]]
            seg = np.cumsum(count := total[lo:hi]) - count
            keep = np.ones(len(out), dtype=bool)
            for j in range(0, n, per):
                word = out[:, j:j + per] @ len(conj) ** np.arange(min(per, n - j) - 1, -1, -1)
                word = np.where(keep, word, np.iinfo(np.int64).max)
                keep &= word == np.repeat(np.minimum.reduceat(word, seg), count)
            aut = np.add.reduceat(keep, seg, dtype=np.intp)
            keys = out[keep][np.cumsum(aut) - aut].tolist()
            yield from zip(chunk[lo:hi], map(tuple, keys), aut.tolist())


def enumerate_classes(n: int, jobs: int = 1) -> EnumReport:
    """One witness per isomorphism class, from the key-rank branches only.

    The first search output of each orbit key is checked and canonicalised
    with the others in one stack, which gives the witnesses.  The labeled
    count is the sum of n!/|Aut| over the classes.
    """
    start = time.perf_counter()
    found = {}  # orbit key -> (first rank tuple, |Aut|)
    for ranks, key, aut in _coset_orbits(n, _branches(n, _key_ranks(n), jobs, True)):
        found.setdefault(key, (ranks, aut))
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
