"""Independent references that the tests check the library against.

Each is a plain, slow implementation of something the library computes in
a faster or more specialised way: isomorphism search for canonical_form,
the self-distributive identity for the orbit-closure axiom check, the
merge calculus on raw edge multisets for build_info and the audit, and
exact rational zeta for the zeta sweep's block scorer.
"""

from __future__ import annotations

from fractions import Fraction

from racklab.core import Rack, Violation, table_order
from racklab.graph import (ColoredDigraph, ComponentStructure, component_structure,
                           multigraph_component_count, validate_edges)
from racklab.perms import is_permutation


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
    return multigraph_component_count(graph.n, graph.undirected_support(), extra_edges)


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
