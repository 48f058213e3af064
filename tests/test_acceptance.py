"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Tolerances and budgets are pinned here; randomized parts use fixed seeds.
"""

import math
import random
import time

from racklab import (CodecParams, axiom_report, chernoff_check,
                     component_out_degree_constant, conjugation_quandle, decode,
                     dihedral_quandle, encode, encode_with_stats,
                     enumerate_classes, enumerate_labeled, find_W,
                     merge_bound_audit, random_subset_check, symmetric_group_table, trivial_rack,
                     zeta_bound_sweep)
from racklab.graph import ColoredDigraph, components

from _corpus import family_racks, is_subrack, orbit_closure, param_grid, random_relabeling
from _reference import (multigraph_component_count, multigraph_merged_parts, oracle_enumerate,
                        oracle_labeled_tables, satisfies_rack_axioms)

CONFORMANCE_TRIVIAL_3 = bytes.fromhex("524b4531000300040002f0e1c3840000")


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_axiom_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240501)
    checked = 0
    # all (2!)^2 translation pairs on two elements
    from itertools import permutations
    for f0 in permutations(range(2)):
        for f1 in permutations(range(2)):
            table = tuple(tuple((f0, f1)[y][x] for y in range(2)) for x in range(2))
            a = axiom_report(table).is_rack
            b = satisfies_rack_axioms(table)
            assert a == b
            checked += 1
    for _ in range(10_000):
        n = rng.randrange(1, 6)
        table = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
        a = axiom_report(table).is_rack
        b = satisfies_rack_axioms(table)
        assert a == b
        checked += 1
    elapsed = time.perf_counter() - start
    _report("axiom-equivalence", elapsed < 10.0,
            f"{checked} tables agree, {elapsed:.2f}s < 10s")


def test_oracle_enumeration():
    start = time.perf_counter()
    for n in (1, 2, 3):
        engine_labeled = sorted(r.table for r in enumerate_labeled(n))
        oracle_labeled = sorted(oracle_labeled_tables(n))
        assert engine_labeled == oracle_labeled, f"labeled sets differ at n={n}"
        fast = enumerate_classes(n)
        slow = oracle_enumerate(n)
        assert fast.class_count == slow.class_count
        assert fast.quandle_class_count == slow.quandle_class_count
        assert fast.witnesses == slow.witnesses
        if n == 2:
            assert fast.labeled_count == 2
    elapsed = time.perf_counter() - start
    _report("oracle-enumeration", elapsed < 60.0,
            f"n=1..3 labeled and class sets identical, {elapsed:.2f}s < 60s")


def _round_trip_corpus():
    corpus = []
    for n in (1, 2, 3, 4):
        corpus.extend(("exhaustive", r) for r in enumerate_labeled(n))
    corpus.extend(family_racks(8))
    return corpus


def test_codec_round_trip_and_residual_bound():
    start = time.perf_counter()
    rng = random.Random(77)
    stats_seen = []
    count = 0
    for _, rack in _round_trip_corpus():
        for params in param_grid(rack.n):
            data, stats = encode_with_stats(rack, params)
            assert decode(data) == rack
            stats_seen.append(stats)
            count += 1
    family = family_racks(8)
    for _ in range(1000):
        _, rack = family[rng.randrange(len(family))]
        relabeled = random_relabeling(rng, rack)
        data, stats = encode_with_stats(relabeled)
        assert decode(data) == relabeled
        stats_seen.append(stats)
        count += 1
    elapsed = time.perf_counter() - start
    _report("codec-round-trip", elapsed < 300.0,
            f"{count} round trips exact, {elapsed:.2f}s < 300s")

    bad = [s for s in stats_seen
           if s.residual_bits > math.ceil(s.zeta) + s.cp
           or s.zeta > s.bound + 1e-9]
    _report("residual-bound", not bad,
            f"residual_bits <= ceil(zeta)+cp and zeta <= n^2/4 + 1e-9 "
            f"for {len(stats_seen)} encodings")


def test_zeta_extremal():
    for n in (2, 4, 6, 8, 10):
        report = zeta_bound_sweep(n)
        assert report["pass"], report
        assert report["statistic"]["max_zeta"] == n * n / 4
        two_only = [0 if q != 2 else n for q in range(1, n + 1)]
        assert report["statistic"]["equality_cases"] == [two_only]
    _report("zeta-extremal", True,
            "even n <= 10: max zeta = n^2/4 attained only at eta_2 = n (exact)")


def test_merge_calculus():
    start = time.perf_counter()
    rng = random.Random(424242)
    stability_hits = 0
    for _ in range(10_000):
        n = rng.randrange(2, 13)
        def edges(k):
            out = []
            for _ in range(k):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    out.append((u, v))
            return out
        g = edges(rng.randrange(0, 2 * n))
        e1 = edges(rng.randrange(0, n))
        e2 = edges(rng.randrange(0, n))
        cp_g = multigraph_component_count(n, g)
        cp_g2 = multigraph_component_count(n, g, e2)
        cp_g1 = multigraph_component_count(n, g, e1)
        cp_g12 = multigraph_component_count(n, g, e1, e2)
        assert cp_g - cp_g2 >= cp_g1 - cp_g12, "supermodularity violated"
        merged = multigraph_merged_parts(n, g, e1)
        assert len(merged) <= 2 * (cp_g - cp_g1), "merge bound violated"
        if e2[:1]:
            e = e2[0]
            if multigraph_component_count(n, g, e1 + [e]) == cp_g1:
                stability_hits += 1
                assert (multigraph_merged_parts(n, g, e1 + [e])
                        == multigraph_merged_parts(n, g, e1)), "stability violated"
    elapsed = time.perf_counter() - start
    _report("merge-calculus", elapsed < 30.0,
            f"10000 instances, {stability_hits} stability premises, "
            f"zero violations, {elapsed:.2f}s < 30s")


def test_regularity_and_orbit_equality():
    for n in (1, 2, 3, 4):
        for rack in enumerate_labeled(n):
            for bits in range(1, 1 << n):
                subset = [v for v in range(n) if bits >> v & 1]
                if is_subrack(rack, subset):
                    assert component_out_degree_constant(rack, subset)
    rng = random.Random(31337)
    for _ in range(1000):
        n = rng.randrange(1, 13)
        k = rng.randrange(1, 4)
        perms = [tuple(rng.sample(range(n), n)) for _ in range(k)]
        g = ColoredDigraph(n, dict(enumerate(perms)))
        assert components(g).parts == orbit_closure(n, perms)
    _report("regularity-orbits", True,
            "out-regularity on all subracks of order <= 4 racks; "
            "1000 component/orbit matches")


def test_greedy_audit():
    count = 0
    for n in (1, 2, 3, 4):
        for rack in enumerate_labeled(n):
            for params in (CodecParams.default(n), CodecParams(1, 1)):
                merge_bound_audit(rack, params)
                count += 1
    for _, rack in family_racks(8):
        for params in param_grid(rack.n):
            merge_bound_audit(rack, params)
            count += 1
    _report("greedy-audit", True, f"{count} audits passed")


def test_probabilistic_suite():
    start = time.perf_counter()
    ch = chernoff_check(1000, 0.1, 0.5, trials=100_000, seed=20240502)
    assert ch["pass"], ch
    big = dihedral_quandle(1000)
    rs = random_subset_check(big, 0.1, 0.5, trials=100_000, seed=20240503)
    assert rs["pass"], rs
    s3 = conjugation_quandle(symmetric_group_table(3))
    result = find_W(s3, delta=1, p=0.8, bad_threshold=1, max_attempts=100,
                    seed=20240504)
    assert result.certified and result.maps_match
    assert result.attempts <= 100
    elapsed = time.perf_counter() - start
    _report("probabilistic-suite", True,
            f"chernoff + random-subset(n=1000) + find-W certified "
            f"in {result.attempts} attempt(s), {elapsed:.1f}s")


def test_format_conformance():
    data = encode(trivial_rack(3))
    assert data == CONFORMANCE_TRIVIAL_3, data.hex()
    assert encode(trivial_rack(3)) == data
    assert decode(data) == trivial_rack(3)
    _report("format-conformance",
            True, f"frozen vector {data.hex()} reproduced bit-exactly")
