"""Coloured directed multigraphs of permutation families.

A family sigma_c of permutations of [n] defines a loopless directed
multigraph with an edge u -> v of colour c whenever u != v and
(u)sigma_c = v.  Components always mean components of the underlying
undirected multigraph.  Besides components and out-degrees, the module
has the directed BFS trees the decoder walks, component counts of edge
multisets under adjunction, and the greedy ordering of colours.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .perms import conjugate, is_permutation


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

    @property
    def colors(self) -> tuple:
        return tuple(self._sigma)

    def perm(self, c) -> tuple:
        return self._sigma[c]

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
        return f"ColoredDigraph(n={self.n}, colors={self.colors})"


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


def successors(graph: ColoredDigraph) -> list:
    """succ[u]: the (head, colour) pairs of the edges leaving u, colours ascending."""
    succ = [[] for _ in range(graph.n)]
    for u, v, c in graph.edges():
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
