"""Coloured directed multigraphs of permutation families.

A family sigma_c of permutations of [n] defines a loopless directed
multigraph with an edge u -> v of colour c whenever u != v and
(u)sigma_c = v.  Components always mean components of the underlying
undirected multigraph.  Besides components and out-degrees, the module
has the directed BFS forest the decoder walks (as numpy arrays, with the
conjugation along it), component counts of edge multisets under
adjunction, and the greedy ordering of colours.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .perms import is_permutation


class UnionFind:
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


class ColoredDigraph:
    """Loopless coloured digraph of a permutation family; treat as immutable."""

    __slots__ = ("n", "_sigma")

    def __init__(self, n: int, sigma: dict):
        for c, p in sigma.items():
            if not is_permutation(p, n):
                raise ValueError(f"colour {c}: not a permutation of [{n}]")
        self.n = n
        self._sigma = {c: tuple(sigma[c]) for c in sorted(sigma)}

    def edges(self) -> list:
        """All (u, v, colour) triples, ordered by colour then tail."""
        out = []
        for c, p in self._sigma.items():
            out.extend((u, p[u], c) for u in range(self.n) if p[u] != u)
        return out

    def undirected_support(self) -> list:
        """One undirected pair per edge, multiplicities kept."""
        return [(u, v) for u, v, _ in self.edges()]

    def out_neighbors(self, v: int) -> set:
        return {p[v] for p in self._sigma.values() if p[v] != v}

    def __repr__(self):
        return f"ColoredDigraph(n={self.n}, colors={tuple(self._sigma)})"


def rack_graph(rack, colors=None) -> ColoredDigraph:
    """The graph of a rack restricted to a colour subset (all colours if None)."""
    if colors is None:
        colors = range(rack.n)
    return ColoredDigraph(rack.n, {c: rack.maps[c] for c in colors})


@dataclass(frozen=True)
class ComponentStructure:
    parts: tuple        # disjoint sorted vertex tuples, ordered by minimum
    eta: tuple          # eta[q-1] = number of vertices in parts of size q
    cp: int             # number of parts
    part_index: tuple   # vertex -> index into parts


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


def components(graph: ColoredDigraph) -> ComponentStructure:
    return component_structure(graph.n, graph.undirected_support())


def out_degrees(graph: ColoredDigraph) -> tuple:
    """Per vertex, the number of distinct heads over all colours."""
    return tuple(len(graph.out_neighbors(v)) for v in range(graph.n))


@dataclass(frozen=True)
class Forest:
    """Components of a permutation family's graph and a BFS tree of each."""
    parts: tuple            # sorted vertex tuples, ordered by minimum
    part_index: np.ndarray  # vertex -> index into parts
    members: np.ndarray     # the vertices, part after part
    starts: np.ndarray      # where each part begins in members
    levels: tuple           # per depth, (tail, head, colour position) arrays of tree edges


def bfs_forest(maps: np.ndarray) -> Forest:
    """The components of the graph of the rows of maps, a (k, n) array of
    permutations of [n], and the directed BFS tree of each from its minimum.

    A colour position is a row index.  Each tree is the one a first-in,
    first-out queue from the part's minimum gives when every vertex scans
    its out-edges with colours ascending: all parts advance one depth at a
    time, and a new vertex takes the first edge reaching it in the order
    (frontier position, colour).  The rows must be permutations; they are
    not checked.
    """
    k, n = maps.shape
    vertices = np.arange(n)
    moved = maps != vertices
    tails = np.nonzero(moved)[1]
    heads = maps[moved]
    # label every vertex with its part's minimum: hook each root onto the
    # smallest root across an edge, shortcut every label to its root, and
    # repeat until no edge joins two roots
    label = vertices.copy()
    while True:
        a, b = label[tails], label[heads]
        joins = a != b
        if not joins.any():
            break
        a, b = a[joins], b[joins]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := label[label], label):
            label = up
    # vertices fixed by every map keep their own label: singletons, in the same sort
    members = np.argsort(label, kind="stable")
    first = np.diff(label[members], prepend=-1) != 0
    part_index = np.empty(n, dtype=np.int32)
    part_index[members] = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    bounds = starts.tolist() + [n]
    order = members.tolist()
    parts = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))

    seen = label == vertices
    frontier = np.flatnonzero(seen & moved.any(axis=0))
    levels = []
    while frontier.size:
        reach = maps[:, frontier].T.ravel()     # frontier position major, colours ascending
        edge = np.flatnonzero(~seen[reach])
        if not edge.size:
            break
        _, first = np.unique(reach[edge], return_index=True)
        edge = edge[np.sort(first)]
        tail, head = frontier[edge // k], reach[edge]
        seen[head] = True
        levels.append((tail, head, edge % k))
        frontier = head
    return Forest(parts=parts, part_index=part_index, members=members, starts=starts,
                  levels=tuple(levels))


def conjugate_along_forest(maps: np.ndarray, colour_maps: np.ndarray, levels,
                           known: np.ndarray) -> np.ndarray:
    """Give every tree vertex the conjugate of its parent's map, one depth at a time.

    maps is an (n, n) array whose rows at the roots hold their maps.  Along
    a tree edge x -> u of colour position c, row u becomes f_c^-1 f_x f_c,
    where f_c = colour_maps[c] and f_x is row x, itself conjugated from the
    root; in a rack with these maps row u ends up as f_u.  Rows flagged in
    known are compared before they are overwritten: returns the tree
    vertices whose known row differed from the conjugate.
    """
    differ = []
    for tail, head, colour in levels:
        f = colour_maps[colour]
        conj = np.empty_like(f)
        np.put_along_axis(conj, f, np.take_along_axis(f, maps[tail], axis=1), axis=1)
        check = np.flatnonzero(known[head])
        differ.append(head[check[(conj[check] != maps[head[check]]).any(axis=1)]])
        maps[head] = conj
    return np.concatenate(differ) if differ else np.empty(0, dtype=np.intp)


# ---------------------------------------------------------------------------
# component counts of raw undirected edge multisets

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


# ---------------------------------------------------------------------------
# greedy merge ordering: repeatedly pick the colour whose edges join up the
# most components of the graph of the colours chosen so far

def greedy_merge_order(n: int, maps_by_color: dict, candidates) -> tuple:
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


def component_out_degree_constant(rack, subset) -> bool:
    """True iff every component of the subset-coloured graph is out-regular.

    Out-degree is taken with respect to the same colour subset.
    """
    g = rack_graph(rack, subset)
    structure = components(g)
    degs = out_degrees(g)
    return all(len({degs[v] for v in part}) == 1 for part in structure.parts)


def to_dot(graph: ColoredDigraph) -> str:
    """DOT text of the coloured digraph, deterministic ordering."""
    lines = [f"digraph g{graph.n} {{"]
    for v in range(graph.n):
        lines.append(f"  {v};")
    for u, v, c in graph.edges():
        lines.append(f'  {u} -> {v} [label="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
