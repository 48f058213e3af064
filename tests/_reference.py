"""Independent references that the tests check the library against.

Each is a plain, slow implementation of something the library computes in
a faster or more specialised way: isomorphism search and the pruned n!
scan for canonical_form, the one-rack-at-a-time numpy canonical form for
the batched _canonical_tables, the triple loop for the group check's numpy
associativity blocks, the self-distributive identity for the
orbit-closure axiom check, union-find components and the merge calculus
on raw edge multisets for
the numpy labelling behind components, build_info and the audit, edge
lists and per-vertex head sets for to_dot, out_degrees and the audit's
out-regularity check, exact
rational zeta and the Python float sum for the zeta sweep's block scorer
and codec's column-wise zeta, the Python-loop permutation test for perms'
numpy check (with the tuple identity, inverse and compose that the tests
use), stars and bars and a
row-by-row sweep for the exhaustive sweep's numpy compositions, binomial
tails in exact integers and one Binomial draw per trial for the Chernoff
check's tail counts, a per-vertex tally of every trial for the random-subset
check's product over distinct J_v rows, per-root FIFO BFS trees
and tuple conjugation for the BFS forest, the decoder and find_W that
walked them one part at a time for their array forms, the union-find
lazy greedy with a heap for the block-scored greedy ordering, the class
search that breaks symmetry at column 0 only for the one pruned down a
stabiliser chain, the candidate filter without the free column's own rule
for the one with it, the least of all n! relabeled tuples for the orbit
key read over one key coset, and a brute-force scan of all (n!)^n map
tuples, with no search code shared, for the enumeration engine at n <= 3.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import struct
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from racklab.analysis import DegreeSplitError, WSearchResult, _keep_blocks
from racklab.bits import BitReader, BitUnderflow, uint_width
from racklab.codec import MAGIC, CorruptStream, InconsistentDecode, degree_split
from racklab import enumeration
from racklab.enumeration import EnumReport, OrderOutOfRange, OrderTooLarge
from racklab.core import (AxiomReport, NotAGroupError, Rack, Violation, rack_from_table,
                          table_order, trivial_rack)
from racklab.graph import ColoredDigraph, rack_graph
from racklab.perms import conjugate, lehmer_unrank

ORACLE_MAX_ORDER = 3     # the oracle scans (n!)^n map tuples: 216 at n = 3


def is_permutation(p, n=None) -> bool:
    """True if p is a permutation of {0, ..., len(p)-1} (of length n if
    given), by one pass over Python ints: perms.is_permutation's oracle."""
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


def float_zeta(eta) -> float:
    """zeta as one Python float sum per factor, q after q: the sum that
    codec._zeta_rows computes column by column."""
    inv = sum(count / q for q, count in enumerate(eta, start=1))
    logs = sum(count * math.log2(q) / q for q, count in enumerate(eta, start=1))
    return inv * logs


class UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> bool:
        x, y = self.find(x), self.find(y)
        if x == y:
            return False
        if self.size[x] < self.size[y]:
            x, y = y, x
        self.parent[y] = x
        self.size[x] += self.size[y]
        self.count -= 1
        return True


def self_distributivity_violations(table) -> list:
    """First witness (x, y, z) per failing (y, z) pair of (x>y)>z = (x>z)>(y>z)."""
    n = table_order(table)
    out = []
    for y in range(n):
        for z in range(n):
            for x in range(n):
                if table[table[x][y]][z] != table[table[x][z]][table[y][z]]:
                    out.append(Violation("SelfDistributivityFail", (x, y, z)))
                    break
    return out


def satisfies_rack_axioms(table) -> bool:
    """Every column a bijection, and the self-distributive identity holds."""
    n = table_order(table)
    bijective = all(is_permutation(tuple(row[y] for row in table), n) for y in range(n))
    return bijective and not self_distributivity_violations(table)


def find_isomorphism(r1: Rack, r2: Rack):
    """A permutation phi with (x > y)phi = (x)phi > (y)phi, or None.

    Backtracking over images with partial-homomorphism forcing; images are
    pre-filtered by out-degree profile of the rack graphs.
    """
    if r1.n != r2.n:
        return None
    n = r1.n
    t1, t2 = r1.table, r2.table
    deg1 = [len({t1[x][y] for y in range(n)} - {x}) for x in range(n)]
    deg2 = [len({t2[x][y] for y in range(n)} - {x}) for x in range(n)]
    if sorted(deg1) != sorted(deg2):
        return None

    def close(phi, used):
        # propagate forced images until fixpoint; False on conflict
        changed = True
        while changed:
            changed = False
            assigned = [x for x in range(n) if phi[x] is not None]
            for x in assigned:
                for y in assigned:
                    z = t1[x][y]
                    w = t2[phi[x]][phi[y]]
                    if phi[z] is None:
                        if w in used:
                            return False
                        phi[z] = w
                        used.add(w)
                        changed = True
                    elif phi[z] != w:
                        return False
        return True

    def extend(phi, used):
        try:
            x = phi.index(None)
        except ValueError:
            return True
        for c in range(n):
            if c in used or deg2[c] != deg1[x]:
                continue
            trial = list(phi)
            trial_used = set(used)
            trial[x] = c
            trial_used.add(c)
            if close(trial, trial_used) and extend(trial, trial_used):
                phi[:] = trial
                return True
        return False

    phi = [None] * n
    if extend(phi, set()):
        return tuple(phi)
    return None


def canonical_form(rack: Rack):
    """Lexicographically minimal operation table: full n! scan, row pruning."""
    n = rack.n
    table = rack.table
    best = None
    for psi in itertools.permutations(range(n)):
        phi = inverse(psi)
        rows = []
        better = False
        worse = False
        for x in range(n):
            row = tuple(phi[table[psi[x]][psi[y]]] for y in range(n))
            if best is not None and not better:
                if row > best[x]:
                    worse = True
                    break
                if row < best[x]:
                    better = True
            rows.append(row)
        if worse:
            continue
        if best is None or better:
            best = tuple(rows)
    return best


def numpy_canonical_form(rack: Rack):
    """Lexicographically minimal operation table of one rack: its n!
    relabeled tables from one gather, the least picked by one lexsort.
    canonical_form computed this way before it batched racks."""
    n = rack.n
    psi = np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)
    cells = (psi[:, None, :] * n + psi[:, :, None]).reshape(len(psi), n * n)
    phi = np.argsort(psi, axis=1)
    tables = np.take_along_axis(phi, rack.array.ravel()[cells], axis=1)
    codes = tables.reshape(-1, n, n) @ n ** np.arange(n - 1, -1, -1)
    best = tables[np.lexsort(codes.T[::-1])[0]].reshape(n, n)
    return tuple(map(tuple, best.tolist()))


def group_check(table):
    """(identity, inverses) of a group table by plain loops; raise NotAGroupError."""
    n = table_order(table)
    e = None
    for c in range(n):
        if all(table[c][b] == b for b in range(n)) and all(table[a][c] == a for a in range(n)):
            e = c
            break
    if e is None:
        raise NotAGroupError("NoIdentity", ())
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == e and table[b][a] == e:
                inv[a] = b
                break
        if inv[a] is None:
            raise NotAGroupError("NoInverse", (a,))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroupError("NotAssociative", (a, b, c))
    return e, inv


@dataclass(frozen=True)
class ComponentStructure:
    parts: tuple        # disjoint sorted vertex tuples, ordered by minimum
    eta: tuple          # eta[q-1] = number of vertices in parts of size q
    cp: int             # number of parts
    part_index: tuple   # vertex -> index into parts


def edges(graph: ColoredDigraph) -> list:
    """All (u, v, colour) triples of the graph, ordered by colour then tail."""
    return [(u, v, c) for c, p in zip(graph.colors, graph.maps.tolist())
            for u, v in enumerate(p) if u != v]


def out_degrees(graph: ColoredDigraph) -> tuple:
    """Per vertex, the number of distinct heads over all colours, from sets."""
    rows = graph.maps.tolist()
    return tuple(len({p[v] for p in rows} - {v}) for v in range(graph.n))


def component_out_degree_constant(rack, subset) -> bool:
    """graph.component_out_degree_constant from union-find parts and sets."""
    graph = rack_graph(rack, subset)
    degs = out_degrees(graph)
    return all(len({degs[v] for v in part}) == 1 for part in graph_components(graph).parts)


def component_structure(n: int, pairs) -> ComponentStructure:
    """Components of the undirected multigraph on [n] with the given pairs."""
    uf = UnionFind(n)
    for u, v in pairs:
        uf.union(u, v)
    groups = {}
    for v in range(n):
        groups.setdefault(uf.find(v), []).append(v)
    parts = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    eta = [0] * n
    for part in parts:
        eta[len(part) - 1] += len(part)
    index = [0] * n
    for i, part in enumerate(parts):
        for v in part:
            index[v] = i
    return ComponentStructure(parts=parts, eta=tuple(eta), cp=len(parts),
                              part_index=tuple(index))


def graph_components(graph: ColoredDigraph) -> ComponentStructure:
    """component_structure of a coloured digraph's edges, directions dropped."""
    return component_structure(graph.n, [(u, v) for u, v, _ in edges(graph)])


def validate_edges(n: int, edges) -> list:
    edges = list(edges)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"loop at {u}")
    return edges


def multigraph_component_count(n: int, *edge_sets) -> int:
    """cp of the undirected multigraph on [n] with all given edge multisets."""
    uf = UnionFind(n)
    for edges in edge_sets:
        for u, v in validate_edges(n, edges):
            uf.union(u, v)
    return uf.count


def merged_part_indices(structure: ComponentStructure, pairs) -> tuple:
    """Ascending indices of the parts that some pair (u, v) joins to another part."""
    merged = set()
    for u, v in pairs:
        iu, iv = structure.part_index[u], structure.part_index[v]
        if iu != iv:
            merged.add(iu)
            merged.add(iv)
    return tuple(sorted(merged))


def multigraph_merged_parts(n: int, base_edges, extra_edges) -> tuple:
    """Components of (n, base_edges) having an extra edge to their complement.

    Only the support of extra_edges matters, but multiplicities are accepted.
    """
    structure = component_structure(n, validate_edges(n, base_edges))
    merged = merged_part_indices(structure, validate_edges(n, extra_edges))
    return tuple(structure.parts[i] for i in merged)


def count_components_with(graph: ColoredDigraph, extra_edges) -> int:
    """cp of the graph after adjoining extra_edges as uncoloured edges."""
    return multigraph_component_count(graph.n, [(u, v) for u, v, _ in edges(graph)], extra_edges)


def zeta_of_exact(eta):
    """Exact rational zeta when every active size is a power of two, else None.

    For other sizes log2(q) is irrational, so zeta can never equal the
    rational boundary n^2/4 and floating point is safe for the comparison.
    """
    inv = Fraction(0)
    logs = Fraction(0)
    for q, e in enumerate(eta, start=1):
        if e == 0:
            continue
        k = q.bit_length() - 1
        if q != 1 << k:
            return None
        inv += Fraction(e, q)
        logs += Fraction(e * k, q)
    return inv * logs


def weak_compositions(n: int):
    """The weak compositions of n into n parts in lexicographic order: stars
    and bars, the (n-1)-subsets of 2n - 1 slots in lexicographic order."""
    for bars in itertools.combinations(range(2 * n - 1), n - 1):
        edges = (-1,) + bars + (2 * n - 1,)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def zeta_sweep(n: int) -> dict:
    """zeta_bound_sweep(n)'s exhaustive report, one composition at a time:
    the float zeta, or the exact Fraction where every size is a power of two."""
    bound = Fraction(n * n, 4)
    count = violations = 0
    max_zeta, argmax, equality = -1.0, None, []
    for eta in weak_compositions(n):
        count += 1
        exact = zeta_of_exact(eta)
        zeta = float_zeta(eta) if exact is None else float(exact)
        if exact is None:
            violations += zeta > n * n / 4 + 1e-9
        else:
            violations += exact > bound
            if exact == bound:
                equality.append(list(eta))
        if zeta > max_zeta:
            max_zeta, argmax = zeta, list(eta)
    two_only = [0 if q != 2 else n for q in range(1, n + 1)]
    ok = violations == 0 and equality == ([two_only] if n >= 2 else [])
    if n >= 2:
        ok = ok and abs(max_zeta - n * n / 4) <= 1e-9
    return {
        "check": "zeta-sweep",
        "params": {"n": n, "mode": "exhaustive", "count": count, "trials": 0},
        "seed": 0,
        "statistic": {"max_zeta": max_zeta, "argmax": argmax, "equality_cases": equality},
        "bound": n * n / 4,
        "pass": ok,
    }


def binomial_tail(n: int, p: float, accept) -> float:
    """P(accept(X)) for X ~ Binomial(n, p), exactly for p = a/d, its binary value:
    the sum of math.comb(n, k) a^k (d-a)^(n-k) over accepted k, divided by d^n."""
    a, d = p.as_integer_ratio()
    total, power = 0, 1     # by Horner in d - a; power = a^k
    for k in range(n + 1):
        total = total * (d - a) + (math.comb(n, k) * power if accept(k) else 0)
        power *= a
    return float(Fraction(total, d ** n))


def chernoff_trial_tails(n: int, p: float, eps: float, trials: int, seed: int = 0,
                         chunk: int = 10_000) -> tuple:
    """(upper, lower) tail estimates of chernoff_check from one Binomial(n, p)
    draw per trial, in its chunks with its per-chunk seeds."""
    mean = n * p
    hi = lo = 0
    for idx, done in enumerate(range(0, trials, chunk)):
        x = np.random.default_rng((seed, idx)).binomial(n, p, size=min(chunk, trials - done))
        hi += int((x >= (1 + eps) * mean).sum())
        lo += int((x <= (1 - eps) * mean).sum())
    return hi / trials, lo / trials


def lazy_greedy_merge_order(n: int, maps_by_color: dict, candidates) -> tuple:
    """Order all candidate colours greedily; returns (order, cp_sequence).

    cp_sequence[i] is the component count after the first i+1 picks; ties are
    broken by the smallest colour label, so the result is deterministic.

    Picks are evaluated lazily (Minoux's accelerated greedy): a colour's drop
    in component count is n minus a graphic-matroid rank, which is submodular,
    so the drop only shrinks as picks accumulate.  Stale heap keys
    (-drop, colour) are therefore bounds, and the re-evaluated top colour is
    the eager pick as soon as its fresh key still beats the next stale one.
    A key of 0 is exact, so zero-drop colours come out in label order.
    """
    remaining = sorted(candidates)
    for c in remaining:
        if not is_permutation(maps_by_color[c], n):
            raise ValueError(f"colour {c}: not a permutation of [{n}]")
    current = UnionFind(n)
    find = current.find
    heap = [(-n, c) for c in remaining]  # sorted, hence already a heap
    order = []
    cps = []
    while heap:
        key, c = heapq.heappop(heap)
        if key:
            p = maps_by_color[c]
            # merges of this colour's edges, on a dict overlaying the roots
            overlay = {}
            drop = 0
            for u, v in enumerate(p):
                if u != v:
                    a, b = find(u), find(v)
                    while a in overlay:
                        a = overlay[a]
                    while b in overlay:
                        b = overlay[b]
                    if a != b:
                        overlay[a] = b
                        drop += 1
            if heap and (-drop, c) > heap[0]:
                heapq.heappush(heap, (-drop, c))
                continue
            for u, v in enumerate(p):
                if u != v:
                    current.union(u, v)
        order.append(c)
        cps.append(current.count)
    return tuple(order), tuple(cps)


def witness_colours(n: int, maps) -> list:
    """For each vertex v, the least colour j per distinct head (v)f_j != v,
    colours ascending: the loop analysis.random_subset_check used for J_v."""
    out = []
    for v in range(n):
        seen = set()
        chosen = []
        for j, f in enumerate(maps):
            if f[v] != v and f[v] not in seen:
                seen.add(f[v])
                chosen.append(j)
        out.append(chosen)
    return out


def random_subset_check(rack: Rack, p: float, eps: float, trials: int, seed: int = 0,
                        chunk: int = 2_000) -> dict:
    """analysis.random_subset_check tallied row by row: J_v from
    witness_colours, every vertex counted on every trial against
    (1 - eps) d_v p + 1e-12, in its chunks with its per-chunk seeds.  Each
    chunk's keep matrix comes whole from analysis._keep_blocks: this checks
    the tally, not the draw."""
    n = rack.n
    witnesses = witness_colours(n, rack.maps)
    delta = [len(j) * p for j in witnesses]
    size_hits, j_hits = 0, [0] * n
    for idx, done in enumerate(range(0, trials, chunk)):
        words, tails = (np.random.default_rng((seed, idx, s)).bit_generator.random_raw
                        for s in (0, 1))
        b = min(chunk, trials - done)
        keep = np.concatenate(list(_keep_blocks(n, b, p, words, tails))).T
        size_hits += int((keep.sum(axis=0) >= (1 + eps) * n * p).sum())
        for v in range(n):
            cap = (1 - eps) * delta[v] + 1e-12
            j_hits[v] += int((keep[witnesses[v]].sum(axis=0) <= cap).sum())
    size_est = size_hits / trials
    size_bound = math.exp(-eps * eps * n * p / 3)
    ok = size_est <= size_bound + 3 * math.sqrt(max(size_est * (1 - size_est), 0.0) / trials)
    worst = {"vertex": None, "estimate": 0.0, "bound": 1.0, "margin": -1.0}
    for v in range(n):
        if not witnesses[v]:
            continue
        bound_v = math.exp(-eps * eps * delta[v] / 2)
        est = j_hits[v] / trials
        margin = est - (bound_v + 3 * math.sqrt(max(est * (1 - est), 0.0) / trials))
        if margin > worst["margin"]:
            worst = {"vertex": v, "estimate": est, "bound": bound_v, "margin": margin}
        ok = ok and margin <= 0
    return {
        "check": "random-subset",
        "params": {"n": n, "p": p, "eps": eps, "trials": trials},
        "seed": seed,
        "statistic": {"size_tail": size_est, "worst_vertex": worst},
        "bound": {"size": size_bound},
        "pass": ok,
    }


def successors(graph: ColoredDigraph) -> list:
    """succ[u]: the (head, colour) pairs of the edges leaving u, colours ascending."""
    succ = [[] for _ in range(graph.n)]
    for u, v, c in edges(graph):
        succ[u].append((v, c))
    return succ


def bfs_tree(succ, root: int):
    """Yield the (tail, head, colour) edges of the directed BFS tree from root.

    Vertices leave the queue first in, first out; successors follow succ's order.
    """
    seen = {root}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for u, colour in succ[x]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
                yield x, u, colour


def conjugates_along_tree(succ, root: int, maps) -> dict:
    """conj[u] for every u reachable from root, starting from conj[root] = maps[root].

    Along each BFS tree edge x -> u of colour c, conj[u] = f_c^-1 conj[x] f_c
    with f_c = maps[c]; in a rack whose maps these are, conj[u] is f_u.
    """
    conj = {root: maps[root]}
    for x, u, colour in bfs_tree(succ, root):
        conj[u] = conjugate(conj[x], maps[colour])
    return conj


def decode(data: bytes) -> Rack:
    """codec.decode as it was with one BFS per (representative, part) and per part."""
    if len(data) < 10:
        raise CorruptStream("truncated header")
    if data[:4] != MAGIC:
        raise CorruptStream("bad magic")
    n, delta, cap_l = struct.unpack(">HHH", data[4:10])
    if n == 0 or delta == 0:
        raise CorruptStream("bad parameters")
    if n == 1:
        if len(data) != 10:
            raise CorruptStream("trailing bytes")
        return trivial_rack(1)
    reader = BitReader(data[10:])
    try:
        return _decode_body(n, reader)
    except BitUnderflow as exc:
        raise CorruptStream(str(exc)) from None


def _decode_body(n: int, r: BitReader) -> Rack:
    w_vertex = uint_width(n)

    def read_vertex():
        v = r.read(w_vertex)
        if v >= n:
            raise CorruptStream(f"vertex {v} out of range")
        return v

    s_low = r.read_bitmap(n)
    nfact = math.factorial(n)
    w_perm = uint_width(nfact)

    def read_perm():
        rank = r.read(w_perm)
        if rank >= nfact:
            raise CorruptStream(f"permutation rank {rank} out of range")
        return lehmer_unrank(rank, n)

    low_set = set(s_low)
    s_high = tuple(v for v in range(n) if v not in low_set)
    known = {j: read_perm() for j in s_high}

    t_len = r.read(uint_width(n + 1))
    if t_len > n:
        raise CorruptStream("t length out of range")
    t_order = tuple(read_vertex() for _ in range(t_len))
    if len(set(t_order)) != t_len or not set(t_order) <= low_set:
        raise CorruptStream("invalid t set")
    t_sorted = tuple(sorted(t_order))
    t_set = set(t_order)

    t_restrictions = []
    for j in range(n):
        if r.read_bitmap(n) != t_sorted:
            raise CorruptStream(f"restriction domain mismatch for colour {j}")
        t_restrictions.append(tuple(read_vertex() for _ in t_sorted))

    t_plus_set = set(t_set)
    for imgs in t_restrictions:
        for i, img in zip(t_sorted, imgs):
            if img != i:
                t_plus_set.add(img)
    t_plus = tuple(sorted(t_plus_set))
    for k in t_plus:
        p = read_perm()
        if k in known and known[k] != p:
            raise InconsistentDecode(f"conflicting maps for colour {k}")
        known[k] = p
    for j, imgs in enumerate(t_restrictions):
        if j in known and any(known[j][i] != img for i, img in zip(t_sorted, imgs)):
            raise InconsistentDecode(f"restriction mismatch for colour {j}")

    g_t = ColoredDigraph(n, {i: known[i] for i in t_sorted})
    parts = graph_components(g_t).parts
    cp = len(parts)

    s_low_minus_t = tuple(j for j in s_low if j not in t_set)
    merge_lists = [r.read_bitmap(cp) for _ in s_low_minus_t]
    merged_map = {}
    for j, merged in zip(s_low_minus_t, merge_lists):
        block = tuple(sorted(v for ci in merged for v in parts[ci]))
        if r.read_bitmap(n) != block:
            raise CorruptStream(f"merged domain mismatch for colour {j}")
        imgs = tuple(read_vertex() for _ in block)
        if tuple(sorted(imgs)) != block:
            raise InconsistentDecode(f"merged block of colour {j} is not preserved")
        merged_map[j] = dict(zip(block, imgs))
    merged_index = dict(zip(s_low_minus_t, merge_lists))

    succ = successors(g_t)
    t_pos = {i: k for k, i in enumerate(t_sorted)}

    for part in parts:
        v = part[0]
        if v in known:
            continue
        if v not in merged_index:
            raise CorruptStream(f"no merge data for representative {v}")
        images = [None] * n
        for y, img in merged_map[v].items():
            images[y] = img
        merged = set(merged_index[v])
        restr = t_restrictions[v]
        for di, dpart in enumerate(parts):
            if di in merged:
                continue
            idx = r.read(uint_width(len(dpart)))
            if idx >= len(dpart):
                raise CorruptStream("residual index out of range")
            base = dpart[0]
            images[base] = dpart[idx]
            reached = 1
            for x, u, colour in bfs_tree(succ, base):
                images[u] = known[restr[t_pos[colour]]][images[x]]
                reached += 1
            if reached != len(dpart):
                raise InconsistentDecode("component is not reachable by directed edges")
        if any(img is None for img in images):
            raise InconsistentDecode(f"map {v} not fully determined")
        p = tuple(images)
        if not is_permutation(p, n):
            raise InconsistentDecode(f"reconstructed map {v} is not a permutation")
        known[v] = p

    rest_bits = r.bits_remaining()
    if rest_bits >= 8:
        raise CorruptStream("trailing bytes after stream")
    if rest_bits and r.read(rest_bits) != 0:
        raise CorruptStream("nonzero padding")

    for part in parts:
        conj = conjugates_along_tree(succ, part[0], known)
        if len(conj) != len(part):
            raise InconsistentDecode("component is not reachable by directed edges")
        for u in part[1:]:
            if u in known:
                if known[u] != conj[u]:
                    raise InconsistentDecode(f"conjugation mismatch at {u}")
            else:
                known[u] = conj[u]

    table = tuple(zip(*(known[y] for y in range(n))))
    result = rack_from_table(table)
    if isinstance(result, AxiomReport):
        raise InconsistentDecode("reconstructed maps violate the rack axioms")
    maps = result.maps
    for j in s_low_minus_t:
        for y, img in merged_map[j].items():
            if maps[j][y] != img:
                raise InconsistentDecode(f"merged restriction mismatch for colour {j}")
    for j in range(n):
        for i, img in zip(t_sorted, t_restrictions[j]):
            if maps[j][i] != img:
                raise InconsistentDecode(f"restriction mismatch for colour {j}")
    return result


def find_W(rack: Rack, delta: int, p: float, bad_threshold: float, max_attempts: int,
           seed: int) -> WSearchResult:
    """analysis.find_W as it was with one conjugation walk per part, in tuples."""
    n = rack.n
    size_cap = 1.5 * n * p
    _, s_high = degree_split(rack, delta)
    high = set(s_high)
    if not high:
        return WSearchResult(w=(), p=p, attempts=0, certified=True, n=n, delta=delta,
                             bad_threshold=bad_threshold, size_cap=size_cap,
                             component_count=0, maps_match=True)
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        x = tuple(v for v in range(n) if rng.random() < p)
        if len(x) > size_cap or not x:
            continue
        g_x = rack_graph(rack, x)
        degs = out_degrees(g_x)
        if any(degs[v] <= bad_threshold for v in s_high):
            continue
        inside = [part for part in graph_components(g_x).parts if part[0] in high]
        for part in inside:
            if not all(u in high for u in part):
                raise DegreeSplitError("degree split is not separated in the sampled graph")
        w = tuple(sorted(set(x) | {part[0] for part in inside}))
        succ = successors(g_x)
        match = True
        maps = rack.maps
        for part in inside:
            conj = conjugates_along_tree(succ, part[0], maps)
            match = len(conj) == len(part) and all(conj[u] == maps[u] for u in part)
            if not match:
                break
        return WSearchResult(w=w, p=p, attempts=attempt, certified=match, n=n,
                             delta=delta, bad_threshold=bad_threshold,
                             size_cap=size_cap, component_count=len(inside),
                             maps_match=match)
    return WSearchResult(w=(), p=p, attempts=max_attempts, certified=False, n=n,
                         delta=delta, bad_threshold=bad_threshold, size_cap=size_cap,
                         component_count=0, maps_match=False)


def candidates(n: int, known) -> list:
    """_candidates before it tested the free column's own rule: the ranks r
    with f_{(q)f_r} = conj[f_q, r] at each set column q whose image is set."""
    images, conj = enumeration._images(n), enumeration._tables(n)[1]
    ranks = np.array([-1 if r is None else r for r in known])
    ok = np.ones(len(conj), dtype=bool)
    for q, fq in enumerate(known):
        if fq is not None:
            found = ranks[images[q]]
            ok &= (found < 0) | (found == conj[fq])
    return np.flatnonzero(ok).tolist()


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


def orbits(n: int, batch):
    """(keys, auts): the least of the n! relabeled rank tuples of each tuple
    in batch, and the number of relabelings that reach it, |Aut|.

    Relabeling by the k-th permutation phi moves rank r_y to conj[r_y, k] at
    position phi[y], so position x of the k-th relabeled tuple reads
    conj[r_{phi^-1[x]}, k]: one gather of the tuple's n rows of conj, then
    one take through cells[k, x] = N phi_k^-1[x] + k.  This is the dedupe
    enumerate_classes ran before it read one key coset per output.
    """
    conj, perms = enumeration._tables(n)[1], enumeration._maps(n)
    cells = len(perms) * np.argsort(perms, axis=1) + np.arange(len(perms))[:, None]
    rows = conj[np.asarray(batch, dtype=np.intp)].reshape(len(batch), -1)
    relabeled = np.take(rows, cells, axis=1)
    least = _lexmin_rows(relabeled)
    return relabeled[np.arange(len(batch)), least.argmax(axis=1)], least.sum(axis=1)


def unpruned_class_outputs(n: int) -> list:
    """Rank tuples of every rack on [n] whose f_0 has a key rank, in stream
    order: the class search as it was when column 0 was its only symmetry
    break, on the library's _propagate and _candidates."""
    perms, conj = enumeration._tables(n)[0], enumeration._rows(n)

    def search(known, col):
        while col < n and known[col] is not None:
            col += 1
        if col == n:
            yield tuple(known)
            return
        for r in enumeration._candidates(n, known, col):
            trail = enumeration._propagate(known, col, r, perms, conj)
            if trail is None:
                continue
            yield from search(known, col + 1)
            for c in trail:
                known[c] = None

    outputs = []
    for rank in enumeration._key_ranks(n):
        known = [None] * n
        if enumeration._propagate(known, 0, rank, perms, conj) is not None:
            outputs += search(known, 1)
    return outputs


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
