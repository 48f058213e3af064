"""Coloured directed multigraphs of permutation families.

A family sigma_c of permutations of [n] defines a loopless directed
multigraph with an edge u -> v of colour c whenever u != v and
(u)sigma_c = v.  Components always mean components of the underlying
undirected multigraph.  A ColoredDigraph is a colour set and the array of
its maps, and rack_graph gives a rack's colour subset as one; components
(its directed BFS forest), out_degrees (by least_colours, the least colour
per out-neighbour), greedy_merge_order and to_dot read that array.  The
module also has the decoder's conjugation along a forest, the drop in
component count and the merged parts when one more colour joins a
forest's parts.  All of them, and the axiom check's orbit closure, label
components by one numpy pass, `_min_labels`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .perms import distinct_rows, is_permutation


class ColoredDigraph:
    """Loopless coloured digraph of a permutation family; immutable.

    Row i of maps, a read-only (k, n) int32 array, is the map of colors[i],
    colours ascending.  The maps may be any integer arrays or sequences;
    raises ValueError for the least colour whose map is not a permutation.
    """

    __slots__ = ("n", "colors", "maps")

    def __init__(self, n: int, sigma: dict):
        colors = tuple(sorted(sigma))
        maps = np.empty((len(colors), n), dtype=np.int32)
        for i, c in enumerate(colors):
            if not is_permutation(sigma[c], n):
                raise ValueError(f"colour {c}: not a permutation of [{n}]")
            maps[i] = sigma[c]
        maps.flags.writeable = False
        self.n, self.colors, self.maps = n, colors, maps

    @classmethod
    def _unchecked(cls, n: int, colors: tuple, maps: np.ndarray) -> ColoredDigraph:
        """The graph of maps, permutations of [n] that are not checked."""
        graph = cls.__new__(cls)
        maps.flags.writeable = False
        graph.n, graph.colors, graph.maps = n, colors, maps
        return graph

    def __repr__(self):
        return f"ColoredDigraph(n={self.n}, colors={self.colors})"


def rack_graph(rack, colors=None) -> ColoredDigraph:
    """The graph of a rack's colour subset (all colours if None); only the
    labels are checked, as a rack's maps are permutations.  All colours share
    the rack's read-only array."""
    if colors is None:
        return ColoredDigraph._unchecked(rack.n, tuple(range(rack.n)), rack.array)
    colors = sorted({operator.index(c) for c in colors})
    bad = [c for c in colors if not 0 <= c < rack.n]
    if bad:
        raise ValueError(f"colour {bad[0]}: not an element of [{rack.n}]")
    return ColoredDigraph._unchecked(rack.n, tuple(colors), rack.array[colors])


def components(graph: ColoredDigraph) -> Forest:
    """The components of graph and a BFS tree of each: bfs_forest of its maps."""
    return bfs_forest(graph.maps)


def out_degrees(graph: ColoredDigraph) -> np.ndarray:
    """Per vertex, the number of distinct heads over the maps."""
    return (least_colours(graph.maps) < len(graph.colors)).sum(axis=1)


def least_colours(maps: np.ndarray) -> np.ndarray:
    """least[v, u] for maps, a (k, n) array whose rows are maps of [n]: the
    least row y with (v)f_y = u != v, or k if there is none.

    Row v holds J_v, the least colour per out-neighbour of v; its entries
    below k count v's out-degree in the graph of the rows.  A minimum
    scatter, not a sort."""
    k, n = maps.shape
    least = np.full(n * n, k, dtype=np.int32)
    np.minimum.at(least, (np.arange(n) * n + maps).ravel(), np.arange(k, dtype=np.int32).repeat(n))
    least[::n + 1] = k     # no loops
    return least.reshape(n, n)


@dataclass(frozen=True)
class Forest:
    """Components of a permutation family's graph and a BFS tree of each."""
    parts: tuple            # sorted vertex tuples, ordered by minimum
    part_index: np.ndarray  # vertex -> index into parts
    members: np.ndarray     # the vertices, part after part
    starts: np.ndarray      # where each part begins in members
    levels: tuple           # per depth, (tail, head, colour position) arrays of tree edges

    @property
    def eta(self) -> tuple:
        """eta[q-1] = number of vertices in parts of size q."""
        size = np.bincount(self.part_index)[self.part_index]
        return tuple(np.bincount(size - 1, minlength=len(size)).tolist())


def _min_labels(size: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Label each of the nodes 0..size-1 with the smallest node joined to it
    by the undirected edges (tails[i], heads[i])."""
    label = np.arange(size, dtype=tails.dtype)
    # hook each root onto the smallest root across an edge, shortcut every
    # label to its root, and repeat until no edge joins two roots; an edge
    # inside one root's tree stays there, so it is dropped
    while True:
        a, b = label[tails], label[heads]
        joins = a != b
        if not joins.any():
            return label
        tails, heads, a, b = tails[joins], heads[joins], a[joins], b[joins]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while ((up := label[label]) != label).any():
            label = up


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
    vertices = np.arange(n, dtype=maps.dtype)
    moved = maps != vertices
    label = _min_labels(n, np.broadcast_to(vertices, maps.shape)[moved], maps[moved])
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
# greedy merge ordering: repeatedly pick the colour whose edges join up the
# most components of the graph of the colours chosen so far

# rows per block of the greedy's re-scoring: memory O(64 n)
_BLOCK_ROWS = 64


def _merges(comp: np.ndarray, rows: np.ndarray):
    """Each row's drop in component count when its edges join the parts labelled comp.

    comp labels every vertex with its part's minimum.  Node row * n + x
    stands for the part with minimum x in that row's graph.  Returns the
    drops and the merged label of every node, as an (r, n) array.
    """
    r, n = rows.shape
    nodes = np.arange(r * n, dtype=np.int32).reshape(r, n)
    tails = comp + nodes[:, :1]
    heads = comp[rows] + nodes[:, :1]
    cross = tails != heads
    label = _min_labels(r * n, tails[cross], heads[cross]).reshape(r, n)
    return (label != nodes).sum(axis=1), label


def part_merges(forest: Forest, rows: np.ndarray):
    """(drops, touched) for each row of rows, a (k, n) array of permutations,
    whose edges join the parts of forest: the drop in part count, and a
    (k, parts) mask of the parts merged with at least one other part.

    Each distinct row is scored once, _BLOCK_ROWS at a time, by _merges,
    with every vertex labelled by its part's minimum.
    """
    mins = forest.members[forest.starts]
    comp = mins[forest.part_index].astype(np.int32)
    first, inverse = distinct_rows(rows)
    drops = np.empty(len(first), dtype=np.int64)
    touched = np.empty((len(first), len(mins)), dtype=bool)
    for start in range(0, len(first), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        drops[block], label = _merges(comp, rows[first[block]])
        group = label[:, mins]     # each part's merged group, named by its least node
        touched[block] = np.bincount(group.ravel(), minlength=label.size)[group] > 1
    return drops[inverse], touched[inverse]


def greedy_merge_order(graph: ColoredDigraph) -> tuple:
    """Order all colours of graph greedily; returns (order, cp_sequence).

    cp_sequence[i] is the component count after the first i+1 picks; ties are
    broken by the smallest colour label, so the result is deterministic.

    Picks are evaluated lazily (Minoux's accelerated greedy): a colour's drop
    in component count is n minus a graphic-matroid rank, which is submodular,
    so the drop only shrinks as picks accumulate, and a stale drop is an
    upper bound.  At each pick the live colours are taken in (bound
    descending, label ascending) order and re-scored in blocks of 1, 2, 4,
    ... rows, at most _BLOCK_ROWS, until the best fresh (drop, label) beats
    the next stale bound; it is then the eager pick.  A block is scored by
    one min-label pass over the nodes (row, part), so the working memory
    stays O(_BLOCK_ROWS n) beside the graph's maps.
    Once cp is 1 or the best drop is 0, the rest follow in label order.
    Only the least colour of each distinct map is scored: a repeat ties its
    drop but loses on label, and its drop is 0 once that colour is picked.
    """
    n, colours, rows = graph.n, graph.colors, graph.maps
    k = len(colours)
    first = distinct_rows(rows)[0]      # the positions of the least colours
    # (bound, -label) packed as bound * k - position: larger is picked first;
    # a picked colour's key is done, below every live key
    key = n * k - first
    done = -k
    comp = np.arange(n, dtype=np.int32)
    cp = n
    order = []
    cps = []
    while cp > 1 and len(order) < len(first):
        queue = np.argsort(-key)[:len(first) - len(order)]
        best_key = done
        start, size = 0, 1
        while start < queue.size:
            block = queue[start:start + size]
            drops, labels = _merges(comp, rows[first[block]])
            fresh = drops * k - first[block]
            key[block] = fresh
            i = fresh.argmax()
            if fresh[i] > best_key:
                best_key, best, best_drop = fresh[i], block[i], int(drops[i])
                merged = labels[i] - i * n
            start += size
            size = min(2 * size, _BLOCK_ROWS)
            if start < queue.size and best_key > key[queue[start]]:
                break
        if best_drop == 0:
            break
        key[best] = done
        comp = merged[comp]
        cp -= best_drop
        order.append(colours[first[best]])
        cps.append(cp)
    picked = set(order)
    rest = [c for c in colours if c not in picked]
    return tuple(order + rest), tuple(cps + [cp] * len(rest))


def component_out_degree_constant(rack, subset) -> bool:
    """True iff every component of the subset-coloured graph is out-regular.

    Out-degree is taken with respect to the same colour subset.
    """
    graph = rack_graph(rack, subset)
    forest = components(graph)
    degrees = out_degrees(graph)[forest.members]
    return bool((np.minimum.reduceat(degrees, forest.starts)
                 == np.maximum.reduceat(degrees, forest.starts)).all())


def to_dot(graph: ColoredDigraph) -> str:
    """DOT text of the graph: its vertices, then its edges by colour and tail."""
    lines = [f"digraph g{graph.n} {{"]
    for v in range(graph.n):
        lines.append(f"  {v};")
    colour, tail = np.nonzero(graph.maps != np.arange(graph.n))
    for u, v, c in zip(tail.tolist(), graph.maps[colour, tail].tolist(), colour.tolist()):
        lines.append(f'  {u} -> {v} [label="{graph.colors[c]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
