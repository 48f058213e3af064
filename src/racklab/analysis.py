"""Numerical and probabilistic verification of the codec's supporting bounds.

Every check returns a JSON-ready dict {check, params, seed, statistic, bound,
pass, ...}.  Randomness comes from numpy's default PCG64 generator (or the
stdlib Mersenne Twister where noted), seeded explicitly; Monte Carlo trials
are drawn in fixed-size chunks with per-chunk derived seeds (seed, chunk
index), so results do not depend on how work is scheduled.  The Chernoff
check draws a chunk's tail counts, not its trials, from their multinomial law.
Tail estimates are accepted up to bound + 3 standard errors: the bounds are
one-sided guarantees and sampling noise must not flake the checks.  The
exhaustive zeta sweep walks a prefix tree that carries zeta's running sums.
"""

from __future__ import annotations

import math
import numbers
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import _zeta_rows, _zeta_terms, degree_split
from .core import Rack
from .graph import (components, conjugate_along_forest, cycle_types, least_colours,
                    out_degrees, rack_graph)
from .perms import distinct_rows


class CheckParameterError(ValueError):
    """An argument outside the range a check accepts."""


class DegreeSplitError(RuntimeError):
    """find_W met a sampled component holding high- and low-degree vertices."""


def claim_calc_gap(x: float, y: float) -> float:
    """(x+y)^2/8 - x^2/9 - xy/3; non-negative, equal to (x-3y)^2/72."""
    if x < 0 or y < 0:
        raise ValueError("arguments must be non-negative")
    return (x + y) ** 2 / 8 - x ** 2 / 9 - x * y / 3


ZETA_BLOCK_ENTRIES = 1 << 15  # rows x n entries scored at once by the zeta sweep


def _walk(n: int, size: int):
    """The weak compositions of n into n parts in lexicographic order, depth first
    down the prefix tree, in blocks of at most size rows: (zeta, exact, rows(i)).
    A node at level k holds eta_1..eta_k as base-(n + 1) digits (11^10 < 2^63),
    its remainder r, whether it is 0 at every q that is not a power of two, and
    codec._zeta_rows' two sums so far, term by term, and starts C(r + n-1-k, r)
    rows.  A level is expanded whole while it fits a block or is one node, else
    cut into runs of siblings that start at most size rows or are one node."""
    starts = np.array([[math.comb(r + n - 1 - k, r) for r in range(n + 1)] for k in range(n)])
    digits = (n + 1) ** np.arange(n - 2, -1, -1)

    def expand(q, rem, inv, logs, free, code):     # a level's nodes -> their children
        parent = np.repeat(np.arange(len(rem)), rem + 1)
        v = np.arange(len(parent)) - (np.cumsum(rem + 1) - rem - 1)[parent]
        a, b = _zeta_terms(v, q)
        free = free[parent] if q & (q - 1) == 0 else free[parent] & (v == 0)
        return rem[parent] - v, inv[parent] + a, logs[parent] + b, free, code[parent] * (n + 1) + v

    def descend(level, k):
        while k < n - 1 and (len(level[0]) == 1 or level[0].sum() + len(level[0]) <= size):
            k, level = k + 1, expand(k + 1, *level)
        ends = np.cumsum(np.r_[0, starts[k][level[0]]])
        if ends[-1] <= size:    # so k = n - 1
            rem, inv, logs, free, code = level
            a, b = _zeta_terms(rem, n)
            yield ((inv + a) * (logs + b), free & ((rem == 0) | (n & (n - 1) == 0)),
                   lambda i: np.c_[code[i, None] // digits % (n + 1), rem[i]])
            return
        stop = 0
        while stop < len(level[0]):
            start, stop = stop, max(stop + 1, ends.searchsorted(ends[stop] + size, "right") - 1)
            yield from descend([a[start:stop] for a in level], k)

    return descend((np.array([n]), np.zeros(1), np.zeros(1), np.ones(1, bool), np.zeros(1, int)), 0)


def _score_block(n: int, zeta: np.ndarray, exact: np.ndarray, rows: np.ndarray):
    """(zeta, equal, over) for a block of eta sequences of n from each one's float
    zeta (codec._zeta_rows), whether it is exact, and rows, the exact ones.  A row
    is exact when every active q is a power of two: with L the largest power of
    two <= n, A = sum eta_q L/q and B = sum eta_q log2(q) L/q are integers, its
    zeta becomes AB/L^2 (correctly rounded, in place), and equal and over compare
    4AB with (nL)^2 in Python ints.  Other rows have irrational zeta, over n^2/4
    only beyond 1e-9."""
    over = zeta > n * n / 4 + 1e-9
    equal = np.zeros(len(zeta), dtype=bool)
    top = 1 << (n.bit_length() - 1)
    weights = [top >> k for k in range(n.bit_length())]  # L/q at q = 2^k
    target = (n * top) ** 2
    powers = rows[:, [(1 << k) - 1 for k in range(n.bit_length())]].tolist()
    for i, row in zip(np.flatnonzero(exact).tolist(), powers):
        a = sum(e * w for e, w in zip(row, weights))
        b = sum(k * e * w for k, (e, w) in enumerate(zip(row, weights)))
        over[i] = 4 * a * b > target
        equal[i] = 4 * a * b == target
        zeta[i] = a * b / (top * top)
    return zeta, equal, over


def zeta_bound_sweep(n: int, trials: int = 0, seed: int = 0) -> dict:
    """Max of zeta over compositions of n: exhaustive for n <= 10, else sampled.

    The exhaustive mode walks every weak composition of n into n parts down
    a prefix tree whose nodes carry zeta's running sums (_walk).  The sampled
    mode draws component histograms of the graph of a uniform random
    permutation of [n] (its cycle type), so every sampled eta_q is a multiple
    of q, as for the T-graph of a rack.  One numpy scorer takes both in blocks
    and decides equality with n^2/4 in exact integers; the report records
    every composition attaining it.  Either mode fails on a value above the
    bound or an equality case other than the all-2 composition; only the
    exhaustive one also requires that case to be found.
    """
    if not _is_count(n):
        raise CheckParameterError("n >= 1 required")
    n = int(n)      # a numpy integer, too
    size = max(1, ZETA_BLOCK_ENTRIES // n)
    if n <= 10:
        blocks = _walk(n, size)
        mode = "exhaustive"
    else:
        if not _is_count(trials):
            raise CheckParameterError("trials >= 1 required when n > 10")
        rng = np.random.default_rng(seed)
        etas = (cycle_types(np.array([rng.permutation(n) for _ in range(min(size, trials - i))]))
                for i in range(0, trials, size))
        blocks = ((_zeta_rows(eta), eta[:, (1 << np.arange(n.bit_length())) - 1].sum(axis=1) == n,
                   eta.__getitem__) for eta in etas)    # exact: all of n at powers of two
        mode = "sampled"
    count = violations = 0
    max_zeta = -1.0
    argmax = None
    equality = []
    for zeta, exact, rows in blocks:
        zeta, equal, over = _score_block(n, zeta, exact, rows(np.flatnonzero(exact)))
        count += len(zeta)
        violations += int(over.sum())
        equality += rows(np.flatnonzero(equal)).tolist()
        i = int(zeta.argmax())
        if zeta[i] > max_zeta:  # the first maximum wins, as in a row-by-row scan
            max_zeta, argmax = float(zeta[i]), rows([i])[0].tolist()
    bound = n * n / 4
    two_only = [0 if q != 2 else n for q in range(1, n + 1)]
    if mode == "sampled":
        # a sample need not contain the all-2 composition
        ok = violations == 0 and all(e == two_only for e in equality)
    else:
        ok = violations == 0 and equality == ([two_only] if n >= 2 else [])
        if n >= 2:
            ok = ok and abs(max_zeta - bound) <= 1e-9
    return {
        "check": "zeta-sweep",
        "params": {"n": n, "mode": mode, "count": count, "trials": trials},
        "seed": seed,
        "statistic": {"max_zeta": max_zeta, "argmax": argmax,
                      "equality_cases": equality},
        "bound": bound,
        "pass": ok,
    }


def _tail_se(est: float, trials: int) -> float:
    return math.sqrt(max(est * (1 - est), 0.0) / trials)


def _is_count(value) -> bool:
    """Whether value is an integer >= 1, not a bool, as n, trials and chunk must be."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1


def _run_chunks(worker, trials: int, chunk: int, threads: int):
    """Run worker(index, size) over fixed chunks on at most one thread per CPU.

    The chunk layout and per-chunk seeds depend only on trials and chunk, so
    the aggregate is identical for any thread count.
    """
    if not _is_count(chunk):
        raise CheckParameterError("chunk: an integer >= 1 required")
    sizes = [min(chunk, trials - done) for done in range(0, trials, chunk)]
    threads = min(threads, os.cpu_count() or 1)
    if threads <= 1:
        return [worker(i, b) for i, b in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(len(sizes)), sizes))


def _tail_cells(n: int, p: float, eps: float, block: int = 1 << 16) -> np.ndarray:
    """Masses of Binomial(n, p) in both tails, the lower only, the upper only and neither:
    X >= (1+eps)np and X <= (1-eps)np in floats.  The pmf is summed over np +- (10 sd + 30),
    which misses under 1e-17 of the mass, block terms at a time, in log space from
    log pmf(first) and log pmf(k+1) - log pmf(k) = log(n-k) - log(k+1) + log(p/(1-p))."""
    mean, half = n * p, 10 * math.sqrt(n * p * (1 - p)) + 30
    first, last = max(0, math.floor(mean - half)), min(n, math.ceil(mean + half))
    at = (math.lgamma(n + 1) - math.lgamma(first + 1) - math.lgamma(n - first + 1)
          + first * math.log(p) + (n - first) * math.log1p(-p))
    cells = np.zeros(4)
    for start in range(first, last + 1, block):
        ks = np.arange(start, min(last, start + block) + 1)     # and the next block's first k
        steps = np.log(n - ks[:-1]) - np.log1p(ks[:-1]) + (math.log(p) - math.log1p(-p))
        logs = at + np.concatenate(([0.0], np.cumsum(steps)))
        at, ks, logs = logs[-1], ks[:block], logs[:block]
        cell = 3 - (ks >= (1 + eps) * mean) - 2 * (ks <= (1 - eps) * mean)
        cells += np.bincount(cell, weights=np.exp(logs), minlength=4)
    return cells / cells.sum()


def chernoff_check(n: int, p: float, eps: float, trials: int, seed: int = 0,
                   chunk: int = 10_000, threads: int = 1) -> dict:
    """Binomial tail estimates against exp(-eps^2 np/3) and exp(-eps^2 np/2), from
    counts drawn per chunk of b trials as Multinomial(b, _tail_cells(n, p, eps))."""
    if not (0 < p < 1 and 0 < eps <= 1):
        raise CheckParameterError("p in (0,1) and eps in (0,1] required")
    if n < 0 or not _is_count(trials):
        raise CheckParameterError("n >= 0 and trials >= 1 required")
    cells = _tail_cells(n, p, eps)
    draws = _run_chunks(lambda idx, b: np.random.default_rng((seed, idx)).multinomial(b, cells),
                        trials, chunk, threads)
    both, lower, upper, _ = sum(draws).tolist()
    est_hi, est_lo = (both + upper) / trials, (both + lower) / trials
    bound_hi = math.exp(-eps * eps * (n * p) / 3)
    bound_lo = math.exp(-eps * eps * (n * p) / 2)
    ok_hi = est_hi <= bound_hi + 3 * _tail_se(est_hi, trials)
    ok_lo = est_lo <= bound_lo + 3 * _tail_se(est_lo, trials)
    return {
        "check": "chernoff",
        "params": {"n": n, "p": p, "eps": eps, "trials": trials},
        "seed": seed,
        "statistic": {"upper_tail": est_hi, "lower_tail": est_lo},
        "bound": {"upper": bound_hi, "lower": bound_lo},
        "pass": bool(ok_hi and ok_lo),
    }


def random_subset_check(rack: Rack, p: float, eps: float, trials: int, seed: int = 0,
                        chunk: int = 2_000, threads: int = 1) -> dict:
    """Keep each element with probability p and check two tails per trial:

    the subset-size upper tail against exp(-eps^2 np/3), and for every vertex
    v with positive out-degree the lower tail of |J_v & X| (one witness colour
    per out-neighbour, a Binomial(d_v, p) count that never exceeds the
    out-degree of v towards X) against exp(-eps^2 d_v p/2).  For n <= 63 the
    out-degree towards X is also tallied directly.  Each chunk counts |J_v & X|
    per distinct J_v over the colours some J_v holds, by one float32 product
    (exact), against the integer cap floor((1 - eps) d_v p + 1e-12).
    """
    if not (0 < p <= 1 and 0 < eps <= 1):
        raise CheckParameterError("p in (0,1] and eps in (0,1] required")
    if not _is_count(trials):
        raise CheckParameterError("trials >= 1 required")
    n = rack.n
    # row v of jm marks J_v, the least colour per out-neighbour of v (column n: none)
    jm = np.zeros((n, n + 1), dtype=bool)
    jm[np.arange(n)[:, None], least_colours(rack.array)] = True
    jm = jm[:, :n]
    d = jm.sum(axis=1)
    delta = d * p
    # an integer count is <= (1 - eps) delta + 1e-12 iff it is <= this floor
    cap = np.floor((1 - eps) * delta + 1e-12).astype(np.float32)
    first, inverse = distinct_rows(jm)
    used = np.flatnonzero(jm.any(axis=0))
    jd = jm[np.ix_(first, used)].astype(np.float32)
    direct = n <= 63
    if direct:
        images = rack.array.astype(np.int64)  # images[j][v] = (v)f_j
        self_bits = np.int64(1) << np.arange(n, dtype=np.int64)

    def worker(idx, b):
        rng = np.random.default_rng((seed, idx))
        keep = rng.random((n, b)) < p
        size = int((keep.sum(axis=0) >= (1 + eps) * n * p).sum())
        counts = jd @ keep[used].astype(np.float32)     # exact: sums of 0/1
        j_part = (counts <= cap[first, None]).sum(axis=1)[inverse]
        d_part = np.zeros(n, dtype=np.int64)
        if direct:
            masks = np.zeros((b, n), dtype=np.int64)
            for j in range(n):
                rows = keep[j]
                if rows.any():
                    masks[rows] |= np.int64(1) << images[j]
            masks &= ~self_bits
            dcounts = np.bitwise_count(masks)    # n <= 63: no sign bit
            d_part = (dcounts <= cap[None, :]).sum(axis=0).astype(np.int64)
        return size, j_part, d_part

    parts = _run_chunks(worker, trials, chunk, threads)
    size_hits, j_hits, d_hits = (sum(column) for column in zip(*parts))

    size_est = size_hits / trials
    size_bound = math.exp(-eps * eps * n * p / 3)
    ok = size_est <= size_bound + 3 * _tail_se(size_est, trials)
    worst = {"vertex": None, "estimate": 0.0, "bound": 1.0, "margin": -1.0}
    for v in np.flatnonzero(d > 0).tolist():
        bound_v = math.exp(-eps * eps * delta[v] / 2)
        for hits in (j_hits, d_hits) if direct else (j_hits,):
            est = hits[v] / trials
            margin = est - (bound_v + 3 * _tail_se(est, trials))
            if margin > worst["margin"]:
                worst = {"vertex": v, "estimate": est, "bound": bound_v, "margin": margin}
            if margin > 0:
                ok = False
    return {
        "check": "random-subset",
        "params": {"n": n, "p": p, "eps": eps, "trials": trials, "direct": direct},
        "seed": seed,
        "statistic": {"size_tail": size_est, "worst_vertex": worst},
        "bound": {"size": size_bound},
        "pass": bool(ok),
    }


@dataclass(frozen=True)
class WSearchResult:
    w: tuple
    p: float
    attempts: int
    certified: bool
    n: int
    delta: int
    bad_threshold: float
    size_cap: float
    component_count: int
    maps_match: bool

    def to_report(self) -> dict:
        return {
            "check": "find-w",
            "params": {"n": self.n, "delta": self.delta, "p": self.p,
                       "bad_threshold": self.bad_threshold},
            "statistic": {"w_size": len(self.w), "attempts": self.attempts,
                          "components": self.component_count,
                          "maps_match": self.maps_match},
            "bound": self.size_cap,
            "pass": self.certified,
        }


def find_W(rack: Rack, delta: int, p: float, bad_threshold: float | None = None,
           max_attempts: int = 100, seed: int = 0) -> WSearchResult:
    """Sample subsets until one certifies the high-degree maps.

    A sample X is accepted when |X| <= 3np/2 and every high-degree vertex
    keeps out-degree above bad_threshold in the X-coloured graph.  X is then
    augmented with one representative per component inside the high set, and
    the maps of all high vertices are rebuilt by conjugation along directed
    X-paths and compared with the rack.  Exhausting the attempts is reported,
    not fatal: at small orders the sampling regime may simply not certify.
    """
    n = rack.n
    if bad_threshold is None:
        bad_threshold = (math.log2(n) ** 1.5) / 2 if n >= 2 else 0.0
    size_cap = 1.5 * n * p
    _, s_high = degree_split(rack, delta)
    high = set(s_high)
    if not high:
        return WSearchResult(w=(), p=p, attempts=0, certified=True, n=n, delta=delta,
                             bad_threshold=bad_threshold, size_cap=size_cap,
                             component_count=0, maps_match=True)
    high_vertices = np.array(s_high)
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        x = tuple(v for v in range(n) if rng.random() < p)
        if len(x) > size_cap or not x:
            continue
        x_graph = rack_graph(rack, x)
        if (out_degrees(x_graph)[high_vertices] <= bad_threshold).any():
            continue
        forest = components(x_graph)
        inside = [part for part in forest.parts if part[0] in high]
        for part in inside:
            if not high.issuperset(part):
                raise DegreeSplitError("degree split is not separated in the sampled graph")
        reps = tuple(part[0] for part in inside)
        w = tuple(sorted(set(x) | set(reps)))

        # conjugate every map from its part's minimum; compare the parts inside the high set
        differ = conjugate_along_forest(rack.array.copy(), x_graph.maps, forest.levels,
                                        np.ones(n, dtype=bool))
        match = not any(forest.parts[i][0] in high for i in forest.part_index[differ].tolist())
        return WSearchResult(w=w, p=p, attempts=attempt, certified=match, n=n,
                             delta=delta, bad_threshold=bad_threshold,
                             size_cap=size_cap, component_count=len(inside),
                             maps_match=match)
    return WSearchResult(w=(), p=p, attempts=max_attempts, certified=False, n=n,
                         delta=delta, bad_threshold=bad_threshold, size_cap=size_cap,
                         component_count=0, maps_match=False)
