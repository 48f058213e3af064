import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racklab import (ColoredDigraph, component_out_degree_constant, components,
                     degree_split, dihedral_quandle, enumerate_labeled,
                     merge_bound_audit, out_degrees, permutation_rack, rack_graph, to_dot,
                     trivial_rack)
from racklab.graph import (bfs_forest, conjugate_along_forest, greedy_merge_order, least_colours,
                           part_merges)

from _corpus import (commuting_rack, family_racks, from_cycles, is_subrack, orbit_closure,
                     pair_swap_rack, param_grid, random_relabeling)
import _reference
from _reference import (UnionFind, bfs_tree, component_structure, conjugates_along_tree,
                        count_components_with, edges, graph_components, identity,
                        lazy_greedy_merge_order, multigraph_component_count,
                        multigraph_merged_parts, successors, witness_colours)


def test_build_graph_edges():
    g = ColoredDigraph(3, {1: identity(3), 0: identity(3)})
    assert g.colors == (0, 1) and g.maps.tolist() == [[0, 1, 2]] * 2
    assert g.maps.dtype == np.int32 and not g.maps.flags.writeable
    assert edges(g) == []
    cyc = from_cycles(3, [(0, 1, 2)])
    assert edges(ColoredDigraph(3, {0: cyc})) == [(0, 1, 0), (1, 2, 0), (2, 0, 0)]
    # two colours carrying the same edges keep both copies
    assert len(edges(ColoredDigraph(3, {0: cyc, 1: cyc}))) == 6
    sw = ColoredDigraph(2, {0: (1, 0)})
    assert sorted(edges(sw)) == [(0, 1, 0), (1, 0, 0)]
    assert ColoredDigraph(4, {}).maps.shape == (0, 4)
    with pytest.raises(ValueError):
        ColoredDigraph(3, {0: (0, 0, 1)})


def test_graph_takes_integer_arrays_as_maps():
    rows = {0: np.array([1, 2, 0]), 1: np.array([0, 2, 1], dtype=np.uint8),
            2: np.array([2, 1, 0], dtype=np.int32), 3: [1, 0, 2]}
    g = ColoredDigraph(3, rows)
    assert g.maps.tolist() == [[1, 2, 0], [0, 2, 1], [2, 1, 0], [1, 0, 2]]
    d3 = dihedral_quandle(3)
    assert ColoredDigraph(3, dict(enumerate(d3.array))).maps.tolist() == d3.array.tolist()
    # an entry that int32 would wrap onto a vertex is still rejected
    with pytest.raises(ValueError, match=r"^colour 0: not a permutation of \[3\]$"):
        ColoredDigraph(3, {0: np.array([0, 1, 2 ** 32 + 2])})
    # an empty row is the permutation of [0], whatever its type
    for row in ((), [], np.array([])):
        assert ColoredDigraph(0, {0: row, 1: row}).maps.shape == (2, 0)


@pytest.mark.parametrize("label", [-1, 3, 70])
def test_rack_graph_rejects_colours_outside_the_rack(label):
    d3 = dihedral_quandle(3)
    message = rf"^colour {label}: not an element of \[3\]$"
    with pytest.raises(ValueError, match=message):
        rack_graph(d3, [0, label])
    with pytest.raises(ValueError, match=message):
        component_out_degree_constant(d3, [label])
    assert rack_graph(d3, [2, 0, 2]).colors == (0, 2)


def test_rack_graph_of_all_colours_shares_the_rack_array():
    for _, rack in family_racks(8):
        graph, copied = rack_graph(rack), rack_graph(rack, range(rack.n))
        assert np.shares_memory(graph.maps, rack.array)
        assert not np.shares_memory(copied.maps, rack.array)
        assert graph.colors == copied.colors == tuple(range(rack.n))
        assert graph.maps.dtype == np.int32 and not graph.maps.flags.writeable
        assert to_dot(graph) == to_dot(copied)
        degrees = np.array(_reference.out_degrees(copied))
        for delta in range(rack.n):
            low = tuple(np.flatnonzero(degrees <= delta).tolist())
            high = tuple(np.flatnonzero(degrees > delta).tolist())
            assert degree_split(rack, delta) == (low, high)


def test_components():
    empty = ColoredDigraph(4, {})
    s = components(empty)
    assert s.parts == ((0,), (1,), (2,), (3,))
    assert s.eta == (4, 0, 0, 0)
    tri = ColoredDigraph(3, {0: from_cycles(3, [(0, 1, 2)])})
    s = components(tri)
    assert s.parts == ((0, 1, 2),) and s.eta == (0, 0, 3)
    # the three translations of the dihedral quandle on [3] are the three
    # transpositions, so the full graph is connected
    d3 = dihedral_quandle(3)
    assert d3.maps == ((0, 2, 1), (2, 1, 0), (1, 0, 2))
    assert len(components(rack_graph(d3)).parts) == 1


def test_out_degrees():
    assert out_degrees(rack_graph(trivial_rack(4))).tolist() == [0, 0, 0, 0]
    assert out_degrees(rack_graph(dihedral_quandle(3))).tolist() == [2, 2, 2]
    tri = ColoredDigraph(3, {0: from_cycles(3, [(0, 1, 2)])})
    assert out_degrees(tri).tolist() == [1, 1, 1]
    assert out_degrees(ColoredDigraph(3, {})).tolist() == [0, 0, 0]


def test_least_colours_match_the_witness_loop():
    # racks, and random permutation families with k = 0..n rows
    rng = np.random.default_rng(11)
    families = [(rack.n, rack.maps) for _, rack in family_racks(8)]
    families += [(n, [tuple(rng.permutation(n).tolist()) for _ in range(k)])
                 for n in (1, 5, 9) for k in (0, 1, n // 2, n)]
    for n, maps in families:
        least = least_colours(np.array(maps, dtype=np.int32).reshape(len(maps), n))
        assert least.shape == (n, n)
        assert [sorted(row[row < len(maps)].tolist()) for row in least] == \
            witness_colours(n, maps)
        graph = ColoredDigraph(n, dict(enumerate(maps)))
        degrees = _reference.out_degrees(graph)
        assert tuple((least < len(maps)).sum(axis=1).tolist()) == degrees
        assert tuple(out_degrees(graph).tolist()) == degrees


def test_directed_reachability_equals_undirected():
    # for graphs of permutations a path ignoring directions can always be
    # replaced by a directed one
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randrange(2, 9)
        sigma = {c: tuple(rng.sample(range(n), n)) for c in range(rng.randrange(1, 4))}
        g = ColoredDigraph(n, sigma)
        s = graph_components(g)
        succ = successors(g)
        for u in range(n):
            reached = {head for _, head, _ in bfs_tree(succ, u)}
            assert reached == set(s.parts[s.part_index[u]]) - {u}


@st.composite
def colour_families(draw):
    """(n, maps): up to 5 colours on n <= 12 vertices, each a random
    permutation, the identity or a transposition; possibly no colour at all."""
    n = draw(st.integers(1, 12))

    def transposition(ij):
        return from_cycles(n, [ij]) if ij[0] != ij[1] else identity(n)

    vertex = st.integers(0, n - 1)
    perm = st.one_of(st.permutations(range(n)).map(tuple), st.just(identity(n)),
                     st.tuples(vertex, vertex).map(transposition))
    return n, draw(st.lists(perm, max_size=5))


@settings(max_examples=400, deadline=None)
@given(colour_families())
def test_bfs_forest_matches_fifo_bfs_from_each_minimum(family):
    n, maps = family
    forest = bfs_forest(np.array(maps, dtype=np.int32).reshape(len(maps), n))
    g = ColoredDigraph(n, dict(enumerate(maps)))
    structure = graph_components(g)
    found = components(g)
    assert (found.parts, found.eta) == (structure.parts, structure.eta)
    assert forest.parts == structure.parts
    assert tuple(forest.part_index.tolist()) == structure.part_index
    sizes = [len(part) for part in structure.parts]
    assert forest.members.tolist() == [v for part in structure.parts for v in part]
    assert forest.starts.tolist() == (np.cumsum(sizes) - sizes).tolist()
    edges = [(x, u, c) for tail, head, colour in forest.levels
             for x, u, c in zip(tail.tolist(), head.tolist(), colour.tolist())]
    succ = successors(g)
    for part in structure.parts:
        assert [e for e in edges if e[0] in part] == list(bfs_tree(succ, min(part)))
    # level d holds the edges into depth d + 1: their tails are the roots or the previous heads
    roots = [part[0] for part in structure.parts]
    for depth, (tail, _, _) in enumerate(forest.levels):
        previous = roots if depth == 0 else forest.levels[depth - 1][1].tolist()
        assert set(tail.tolist()) <= set(previous)


@settings(max_examples=200, deadline=None)
@given(colour_families(), st.data())
def test_conjugate_along_forest_matches_per_part_walk(family, data):
    n, colours = family
    rows = [data.draw(st.permutations(range(n)).map(tuple)) for _ in range(n)]
    known = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    colour_maps = np.array(colours, dtype=np.int32).reshape(len(colours), n)
    forest = bfs_forest(colour_maps)
    maps = np.array(rows, dtype=np.int32)
    differ = conjugate_along_forest(maps, colour_maps, forest.levels, known)
    # the reference conjugates by colour labels: give colour k the label n + k
    labelled = dict(enumerate(rows)) | {n + k: p for k, p in enumerate(colours)}
    succ = successors(ColoredDigraph(n, {n + k: p for k, p in enumerate(colours)}))
    expected = set()
    for part in forest.parts:
        conj = conjugates_along_tree(succ, part[0], labelled)
        assert [tuple(maps[u].tolist()) for u in part] == [conj[u] for u in part]
        expected |= {u for u in part[1:] if known[u] and conj[u] != rows[u]}
    assert sorted(differ.tolist()) == sorted(expected)


def test_count_components_with():
    empty = ColoredDigraph(4, {})
    assert count_components_with(empty, [(0, 1), (2, 3)]) == 2
    d3 = dihedral_quandle(3)
    g = rack_graph(d3, [0])
    assert count_components_with(g, []) == len(components(g).parts)
    with pytest.raises(ValueError):
        count_components_with(empty, [(0, 0)])


def test_merged_components():
    assert multigraph_merged_parts(3, [], [(0, 1)]) == ((0,), (1,))
    assert multigraph_merged_parts(2, [(0, 1), (1, 0)], [(0, 1)]) == ()
    assert multigraph_merged_parts(4, [], [(0, 1), (1, 2)]) == ((0,), (1,), (2,))


def _random_instance(rng, max_n=12):
    n = rng.randrange(2, max_n + 1)
    def edges(k):
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    def clean(pairs):
        return [(u, v) for u, v in pairs if u != v]
    g = clean(edges(rng.randrange(0, 2 * n)))
    e1 = clean(edges(rng.randrange(0, n)))
    e2 = clean(edges(rng.randrange(0, n)))
    return n, g, e1, e2


def test_supermodularity_random():
    rng = random.Random(99)
    for _ in range(2000):
        n, g, e1, e2 = _random_instance(rng)
        lhs = (multigraph_component_count(n, g)
               - multigraph_component_count(n, g, e2))
        rhs = (multigraph_component_count(n, g, e1)
               - multigraph_component_count(n, g, e1, e2))
        assert lhs >= rhs


def test_merge_stability_random():
    rng = random.Random(17)
    tested = 0
    for _ in range(4000):
        n, g, e1, _ = _random_instance(rng)
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        before = multigraph_component_count(n, g, e1)
        after = multigraph_component_count(n, g, e1 + [(u, v)])
        if before == after:
            tested += 1
            assert (multigraph_merged_parts(n, g, e1 + [(u, v)])
                    == multigraph_merged_parts(n, g, e1))
    assert tested > 500


def test_merge_bound_random():
    rng = random.Random(31)
    for _ in range(2000):
        n, g, e1, _ = _random_instance(rng)
        merged = multigraph_merged_parts(n, g, e1)
        drop = (multigraph_component_count(n, g)
                - multigraph_component_count(n, g, e1))
        assert len(merged) <= 2 * drop


def test_components_match_orbit_closure():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(1, 13)
        k = rng.randrange(1, 4)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(k)]
        g = ColoredDigraph(n, dict(enumerate(perms)))
        assert components(g).parts == orbit_closure(n, perms)


def test_out_regularity_on_enumerated_and_subracks():
    for n in (1, 2, 3):
        for rack in enumerate_labeled(n):
            for bits in range(1, 1 << n):
                subset = [v for v in range(n) if bits >> v & 1]
                if is_subrack(rack, subset):
                    assert component_out_degree_constant(rack, subset)
    for _, rack in family_racks(6):
        assert component_out_degree_constant(rack, range(rack.n))


def test_out_regularity_matches_the_reference():
    rng = random.Random(23)
    racks = [rack for _, rack in family_racks(8)]
    racks += [pair_swap_rack(32, 1), pair_swap_rack(64, 2), commuting_rack(30, 4),
              commuting_rack(48, 3), random_relabeling(rng, dihedral_quandle(12))]
    outcomes = set()
    for rack in racks:
        n = rack.n
        subsets = [(), range(n)] + [rng.sample(range(n), rng.randrange(1, n + 1))
                                    for _ in range(6)]
        for subset in subsets:
            regular = component_out_degree_constant(rack, subset)
            assert regular == _reference.component_out_degree_constant(rack, subset)
            outcomes.add(regular)
    assert outcomes == {True, False}


def test_greedy_merge_order_strict_minimum():
    # one colour is a full cycle (component count 1), the others do nothing:
    # the cycle colour must be picked first regardless of its label
    n = 5
    maps = {c: identity(n) for c in range(n)}
    maps[3] = from_cycles(n, [tuple(range(n))])
    order, cps = greedy_merge_order(ColoredDigraph(n, maps))
    assert order[0] == 3
    assert cps[0] == 1
    assert cps == (1, 1, 1, 1, 1)


def test_greedy_merge_order_ties_by_label():
    n = 5
    maps = {c: identity(n) for c in range(n)}
    order, cps = greedy_merge_order(ColoredDigraph(n, maps))
    assert order == (0, 1, 2, 3, 4)
    assert cps == (5, 5, 5, 5, 5)


def _copy_union_find(uf):
    other = UnionFind(len(uf.parent))
    other.parent, other.size, other.count = list(uf.parent), list(uf.size), uf.count
    return other


def eager_greedy_merge_order(n, maps_by_color, candidates):
    """Reference: the eager greedy, replaying every remaining colour at every pick."""
    remaining = sorted(candidates)
    current = UnionFind(n)
    order = []
    cps = []
    while remaining:
        best_c = None
        best_cp = None
        for c in remaining:
            trial = _copy_union_find(current)
            p = maps_by_color[c]
            for u in range(n):
                if p[u] != u:
                    trial.union(u, p[u])
            if best_cp is None or trial.count < best_cp:
                best_cp = trial.count
                best_c = c
        p = maps_by_color[best_c]
        for u in range(n):
            if p[u] != u:
                current.union(u, p[u])
        order.append(best_c)
        cps.append(current.count)
        remaining.remove(best_c)
    return tuple(order), tuple(cps)


def transposition(n, i, j):
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


@st.composite
def permutation_families(draw):
    """(n, maps_by_color, candidates) with identities, repeats and transpositions."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, 8))
    labels = draw(st.lists(st.integers(0, 40), min_size=k, max_size=k, unique=True))
    maps = {}
    for c in labels:
        kinds = [st.permutations(range(n)).map(tuple), st.just(identity(n)),
                 st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .map(lambda ij: transposition(n, *ij))]
        if maps:
            kinds.append(st.sampled_from(sorted(maps.values())))
        maps[c] = draw(st.one_of(kinds))
    candidates = draw(st.sets(st.sampled_from(labels)))
    return n, maps, candidates


def assert_matches_references(n, maps, candidates):
    result = greedy_merge_order(ColoredDigraph(n, {c: maps[c] for c in candidates}))
    assert result == lazy_greedy_merge_order(n, maps, candidates)
    assert result == eager_greedy_merge_order(n, maps, candidates)


@settings(max_examples=400, deadline=None)
@given(permutation_families())
def test_lazy_greedy_matches_eager(family):
    assert_matches_references(*family)


@st.composite
def long_chain_families(draw):
    """(n, maps_by_color, candidates) whose greedy makes many positive-drop picks:
    transposition paths, random transpositions and commuting racks, n <= 64."""
    n = draw(st.integers(2, 64))
    kind = draw(st.sampled_from(["path", "transpositions", "commuting"]))
    if kind == "path":
        perms = [transposition(n, i, i + 1) for i in range(n - 1)]
    elif kind == "transpositions":
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        perms = [transposition(n, i, j) for i, j in draw(st.lists(pairs, max_size=n))]
    else:
        perms = list(commuting_rack(n, draw(st.integers(0, 10**6))).maps)
    labels = draw(st.permutations(range(len(perms))))
    maps = dict(zip(labels, perms))
    subset = labels and draw(st.booleans())
    candidates = draw(st.sets(st.sampled_from(labels))) if subset else set(maps)
    return n, maps, candidates


@settings(max_examples=100, deadline=None)
@given(long_chain_families())
def test_greedy_matches_references_on_long_chains(family):
    assert_matches_references(*family)


def test_lazy_greedy_matches_eager_on_labeled_racks():
    for rack in enumerate_labeled(4):
        assert_matches_references(4, dict(enumerate(rack.maps)), range(4))


def test_lazy_greedy_matches_eager_on_corpus():
    racks = [rack for _, rack in family_racks(8)]
    racks += [commuting_rack(n, seed) for n in (12, 30, 48) for seed in (1, 4)]
    for rack in racks:
        maps = dict(enumerate(rack.maps))
        for params in param_grid(rack.n):
            low, _ = degree_split(rack, params.delta)
            expected = eager_greedy_merge_order(rack.n, maps, low)
            assert greedy_merge_order(rack_graph(rack, low)) == expected
            assert lazy_greedy_merge_order(rack.n, maps, low) == expected
            report = merge_bound_audit(rack, params)
            assert (report.order, report.cp_seq) == expected


def test_greedy_matches_lazy_reference_at_n_256():
    # the six codec benchmark shapes, from their formulas, each relabeled;
    # maps_by_color[y] sends x to x > y
    def dihedral(n):
        return [tuple((2 * y - x) % n for x in range(n)) for y in range(n)]

    def alexander(n, a):
        return [tuple(((x - y) * a + y) % n for x in range(n)) for y in range(n)]

    def conjugation(elements, mul, inv):
        index = {g: i for i, g in enumerate(elements)}
        return [tuple(index[mul(mul(inv(y), x), y)] for x in elements) for y in elements]

    sym5 = list(itertools.permutations(range(5)))
    dih128 = [(i, s) for i in range(64) for s in (0, 1)]
    cycles = lambda length, count: tuple(x - x % length + (x + 1) % length
                                         if x < length * count else x for x in range(256))
    families = [
        dihedral(256),
        alexander(256, 3),
        conjugation(sym5, lambda a, b: tuple(b[v] for v in a),
                    lambda a: tuple(sorted(range(5), key=a.__getitem__))),
        conjugation(dih128, lambda a, b: ((a[0] + (b[0] if a[1] == 0 else -b[0])) % 64,
                                          a[1] ^ b[1]),
                    lambda a: ((-a[0]) % 64, 0) if a[1] == 0 else a),
        [cycles(2, 128)] * 256,
        [cycles(4, 4)] * 256,
    ]
    rng = random.Random(11)
    for maps in families:
        n = len(maps)
        phi = list(range(n))
        rng.shuffle(phi)
        relabeled = [None] * n
        for y, p in enumerate(maps):
            images = [0] * n
            for x in range(n):
                images[phi[x]] = phi[p[x]]
            relabeled[phi[y]] = tuple(images)
        by_colour = dict(enumerate(relabeled))
        result = greedy_merge_order(ColoredDigraph(n, by_colour))
        assert result == lazy_greedy_merge_order(n, by_colour, range(n))


def bad_rows(n):
    """(name, row): every kind of row that is not a permutation of [n]."""
    ident = list(range(n))
    return [
        ("short", tuple(ident[:-1])),
        ("long", tuple(ident + [n])),
        ("empty", ()),
        ("repeated", tuple([0] + ident[:-1])),
        ("too large", tuple(ident[:-1] + [n])),
        ("negative", tuple([-1] + ident[1:])),
        ("huge", tuple(ident[:-1] + [2 ** 70])),
        ("float", tuple(ident[:-1] + [float(n - 1)])),
        ("string", tuple(ident[:-1] + [str(n - 1)])),
        ("none", tuple(ident[:-1] + [None])),
        ("nested", tuple((v,) for v in ident)),
        ("mixed", tuple([ident[0], [ident[1]]] + ident[2:])),
        ("text", "".join(map(str, ident))),
    ]


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("position", [0, 5, 70])
def test_greedy_rejects_non_permutations_like_the_reference(n, position):
    # the greedy's graph is built from 80 candidates and names the least bad
    # colour: a second bad row further on must not be the one reported
    for name, row in bad_rows(n):
        maps = {c: tuple(np.random.default_rng(c).permutation(n).tolist()) for c in range(80)}
        maps[position] = row
        maps[79] = (0,) * (n + 1)
        candidates = sorted(maps, reverse=True)
        with pytest.raises(ValueError) as expected:
            lazy_greedy_merge_order(n, maps, candidates)
        with pytest.raises(ValueError) as raised:
            ColoredDigraph(n, {c: maps[c] for c in candidates})
        assert str(raised.value) == str(expected.value), name
        assert str(raised.value) == f"colour {position}: not a permutation of [{n}]", name


def test_to_dot():
    g = ColoredDigraph(2, {1: (1, 0)})
    dot = to_dot(g)
    assert "0 -> 1" in dot and '[label="1"]' in dot
    assert dot == to_dot(g)
    # the vertices, then the reference's edges in its order (colour, then tail)
    rng = random.Random(4)
    graphs = [rack_graph(rack) for _, rack in family_racks(6)]
    graphs += [rack_graph(rack, rng.sample(range(rack.n), rack.n // 2))
               for rack in (commuting_rack(20, 1), dihedral_quandle(9))]
    graphs.append(ColoredDigraph(5, {7: from_cycles(5, [(0, 3)]), -2: identity(5)}))
    for graph in graphs:
        lines = [f"digraph g{graph.n} {{"] + [f"  {v};" for v in range(graph.n)]
        lines += [f'  {u} -> {v} [label="{c}"];' for u, v, c in edges(graph)]
        assert to_dot(graph) == "\n".join(lines + ["}"]) + "\n"


def repeated_map_racks():
    """Relabeled racks whose colours share maps, as pytest params.  Pair-swap
    racks have n/2 maps, permutation racks one, and a dihedral quandle of
    order 2m has f_y = f_{y+m}."""
    rng = random.Random(20)
    racks = [("pair_swap_64", pair_swap_rack(64, 1)), ("pair_swap_256", pair_swap_rack(256, 2)),
             ("commuting_48", commuting_rack(48, 3)),
             ("permutation_64", permutation_rack(from_cycles(64, [tuple(range(0, 64, 2)),
                                                                 (1, 3, 5)]))),
             ("trivial_16", permutation_rack(identity(16))),
             ("dihedral_12", dihedral_quandle(12)), ("dihedral_128", dihedral_quandle(128))]
    return [pytest.param(random_relabeling(rng, rack), id=name) for name, rack in racks]


@pytest.mark.parametrize("rack", repeated_map_racks())
def test_greedy_and_split_on_repeated_maps_match_full_scans(rack):
    n = rack.n
    assert len(np.unique(rack.array, axis=0)) < n
    # out-degree counted over every colour's map, repeats included
    degrees = (least_colours(rack.array) < n).sum(axis=1)
    assert tuple(degrees.tolist()) == _reference.out_degrees(rack_graph(rack))
    for delta in sorted({0, 1, 2, int(degrees.max()), n}):
        low, high = degree_split(rack, delta)
        assert low == tuple(np.flatnonzero(degrees <= delta).tolist())
        assert high == tuple(np.flatnonzero(degrees > delta).tolist())
    maps = dict(enumerate(rack.maps))
    candidates = [c for c in range(n) if c % 3]
    for chosen in (range(n), candidates):
        assert greedy_merge_order(rack_graph(rack, chosen)) == \
            lazy_greedy_merge_order(n, maps, chosen)


@pytest.mark.parametrize("rack", repeated_map_racks()[:3])
def test_part_merges_of_repeated_rows_match_row_by_row(rack):
    forest = bfs_forest(rack.array[:3])
    drops, touched = part_merges(forest, rack.array)
    for j, row in enumerate(rack.array):
        drop, mask = part_merges(forest, row[None])
        assert drops[j] == drop[0] and (touched[j] == mask[0]).all()


def test_greedy_names_a_repeated_bad_row_by_its_first_colour():
    n = 6
    good = tuple(range(1, n)) + (0,)
    for bad in ((0,) * n, tuple(range(n - 1)), tuple(range(n)) + (0,)):
        # the same bad row at colours 3, 7 and 75; the valid rows repeat too
        maps = {c: good for c in range(80)}
        for c in (75, 7, 3):
            maps[c] = bad
        with pytest.raises(ValueError, match=rf"^colour 3: not a permutation of \[{n}\]$"):
            ColoredDigraph(n, {c: maps[c] for c in sorted(maps, reverse=True)})
        with pytest.raises(ValueError, match=r"^colour 3: "):
            lazy_greedy_merge_order(n, maps, maps)
