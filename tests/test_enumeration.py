import hashlib
import itertools
import os
import random
from concurrent.futures import Future

import pytest

from racklab import core, enumeration
from racklab import (NotARackError, Rack, canonical_form, component_out_degree_constant,
                     decode, encode, enumerate_classes, enumerate_labeled,
                     oracle_enumerate)
from racklab.enumeration import (MAX_ORDER, ORACLE_MAX_ORDER, ORBIT_BATCH, OrderOutOfRange,
                                 OrderTooLarge, REFERENCE_RACK_CLASSES, _key_ranks,
                                 _orbits, _tables)
from racklab.perms import all_permutations, conjugate

from _corpus import random_relabeling
from _reference import unpruned_class_outputs


def test_exact_counts_n1_n2():
    assert [r.maps for r in enumerate_labeled(1)] == [((0,),)]
    racks = list(enumerate_labeled(2))
    # hand check: the translation pair must be constant (both identity or
    # both the swap); mixed pairs fail the conjugation rule
    assert [r.maps for r in racks] == [(((0, 1), (0, 1))), (((1, 0), (1, 0)))]
    rep = enumerate_classes(2)
    assert rep.labeled_count == 2
    assert rep.class_count == 2  # degree profiles 0 and 1 distinguish them
    assert rep.quandle_class_count == 1


def test_emission_order_is_lexicographic():
    for n in (2, 3):
        keys = [sum(r.maps, ()) for r in enumerate_labeled(n)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_matches_oracle():
    for n in (1, 2, 3):
        fast = enumerate_classes(n)
        slow = oracle_enumerate(n)
        assert fast.labeled_count == slow.labeled_count
        assert fast.class_count == slow.class_count
        assert fast.quandle_class_count == slow.quandle_class_count
        assert fast.witnesses == slow.witnesses


def test_report_invariants():
    import math
    for n in (1, 2, 3, 4):
        rep = enumerate_classes(n)
        assert rep.class_count <= rep.labeled_count <= math.factorial(n) ** n
        assert len(rep.witnesses) == rep.class_count


def test_closure_under_relabeling():
    rng = random.Random(23)
    for n in (2, 3, 4):
        rep = enumerate_classes(n)
        witness_set = set(rep.witnesses)
        racks = list(enumerate_labeled(n))
        for _ in range(20):
            rack = rng.choice(racks)
            relabeled = random_relabeling(rng, rack)
            assert canonical_form(relabeled) in witness_set


def test_enumerated_racks_regular_and_round_trip():
    for n in (1, 2, 3):
        for rack in enumerate_labeled(n):
            assert component_out_degree_constant(rack, range(n))
            assert decode(encode(rack)) == rack


def test_order_caps():
    with pytest.raises(OrderTooLarge):
        list(enumerate_labeled(MAX_ORDER + 1))
    with pytest.raises(OrderOutOfRange):
        list(enumerate_labeled(0))
    with pytest.raises(OrderTooLarge):
        oracle_enumerate(ORACLE_MAX_ORDER + 1)
    with pytest.raises(OrderOutOfRange):
        oracle_enumerate(0)


def test_parallel_matches_serial():
    serial = [r.maps for r in enumerate_labeled(3, jobs=1)]
    parallel = [r.maps for r in enumerate_labeled(3, jobs=2)]
    assert serial == parallel
    # the pool runs the pruned class search too
    serial, parallel = enumerate_classes(5, jobs=1), enumerate_classes(5, jobs=2)
    assert (parallel.labeled_count, parallel.class_count, parallel.quandle_class_count) \
        == (serial.labeled_count, serial.class_count, serial.quandle_class_count)
    assert parallel.witnesses == serial.witnesses


# outputs of the class search pruned down the stabiliser chain
PRUNED_OUTPUTS = {1: 1, 2: 2, 3: 10, 4: 49, 5: 349, 6: 3033}


@pytest.mark.parametrize("n", sorted(PRUNED_OUTPUTS))
def test_chain_pruning_keeps_the_least_tuple_of_every_class(n):
    pruned = list(enumeration._branches(n, _key_ranks(n), 1, True))
    unpruned = unpruned_class_outputs(n)
    assert len(pruned) == PRUNED_OUTPUTS[n]
    # an ordered subsequence: each pruned output is found in what is left
    rest = iter(unpruned)
    assert all(ranks in rest for ranks in pruned)

    def keys(outputs):
        return {tuple(key.tolist()) for i in range(0, len(outputs), ORBIT_BATCH)
                for key in _orbits(n, outputs[i:i + ORBIT_BATCH])[0]}

    # the same classes, and each orbit key, the least relabeled rank tuple,
    # survives the pruning
    pruned_keys = keys(pruned)
    assert pruned_keys == keys(unpruned)
    assert pruned_keys <= set(pruned)


def test_witness_files(tmp_path):
    from racklab import write_witnesses
    rep = enumerate_classes(2)
    summary = write_witnesses(rep, tmp_path / "wit")
    assert summary["classes"] == 2
    files = sorted(p.name for p in (tmp_path / "wit").iterdir())
    assert files == ["rack_2_0000.rack", "rack_2_0001.rack", "summary.json"]


def test_reference_values_are_informational():
    # the published sequence is surfaced but the trusted source is the oracle
    assert oracle_enumerate(3).class_count == enumerate_classes(3).class_count
    assert 3 in REFERENCE_RACK_CLASSES


# sha256 of repr([rack.maps for rack in enumerate_labeled(n)]) and of
# repr(enumerate_classes(n).witnesses), computed before enumeration moved to
# permutation ranks (n = 6 witnesses: before classes were searched from key
# ranks only; n = 6 stream: before search outputs were checked in batches);
# the stream order and the classes must not change
STREAM_SHA256 = {
    4: "c90e03616bc8b04ddbdd3d5dd25452564e3bcff757b51bccfe5649158bd00d87",
    5: "9e8aa589336b71adce378cdf5e18cd6f29608932f0dff3ac11ec54584348afd4",
    6: "977ea249c60ff92cf24e37d91173b1c9585640fa29a87e969e09d7659743b591",
}
WITNESS_SHA256 = {
    4: "5fa2fcf0e1600762fd5fb6d5031cb9445f026fa8fe9e58a60fe118ac7c42d602",
    5: "5079829637025310fe531e447acb132cfc3c50f82969ac7f0f75f821a370ebc0",
    6: "6c0b2def17033828946165a06ed074d8a7fa3e488c8c7b450eca50fe5391ca26",
}


def _sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_stream_and_witnesses_are_pinned(n):
    stream = [r.maps for r in enumerate_labeled(n)]
    assert _sha256(stream) == STREAM_SHA256[n]
    rep = enumerate_classes(n)
    assert rep.labeled_count == len(stream)
    assert _sha256(rep.witnesses) == WITNESS_SHA256[n]


def test_classes_are_pinned_at_order_6():
    rep = enumerate_classes(6)
    assert (rep.labeled_count, rep.class_count, rep.quandle_class_count) == (36538, 353, 73)
    assert _sha256(rep.witnesses) == WITNESS_SHA256[6]


def _cycle_key(p):
    """(sorted cycle lengths of p, length of 0's cycle)."""
    lengths = []
    seen = set()
    for start in range(len(p)):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x, length = p[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths)), lengths[0]


def test_key_ranks_are_the_least_rank_of_each_key():
    assert [len(_key_ranks(n)) for n in (5, 6, 7)] == [12, 19, 30]
    for n in range(1, 8):
        first = {}
        for rank, p in enumerate(all_permutations(n)):
            first.setdefault(_cycle_key(p), rank)
        assert _key_ranks(n) == sorted(first.values())


def test_orbit_key_and_automorphism_count_match_brute_force():
    for n in range(1, 5):
        perms = _tables(n)[0]
        rank = {p: r for r, p in enumerate(perms)}
        for table in enumerate_classes(n).witnesses:
            rack = Rack.from_table(table)
            relabeled = [rack.relabel(phi) for phi in itertools.permutations(range(n))]
            keys, auts = _orbits(n, [tuple(rank[f] for f in rack.maps)])
            assert auts.tolist() == [sum(r == rack for r in relabeled)]
            assert keys[0].tolist() == list(min(
                tuple(rank[f] for f in r.maps) for r in relabeled))


def test_conjugation_table_matches_conjugate():
    for n in range(1, 5):
        perms, conj = _tables(n)
        assert perms == all_permutations(n)
        rank = {p: r for r, p in enumerate(perms)}
        for r, f in enumerate(perms):
            assert [conj[r][s] for s in range(len(perms))] == [
                rank[conjugate(f, g)] for g in perms]


def test_one_class_per_canonical_form_n4():
    keys = {canonical_form(rack) for rack in enumerate_labeled(4)}
    rep = enumerate_classes(4)
    assert keys == set(rep.witnesses)
    assert rep.class_count == len(keys)


def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch):
    sizes = []

    class InlinePool:
        # records the pool size and runs each task here; starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = [r.maps for r in enumerate_labeled(3)]
    assert [r.maps for r in enumerate_labeled(3, jobs=100_000)] == serial
    assert enumerate_classes(3, jobs=100_000).witnesses == enumerate_classes(3).witnesses
    assert sizes == [2, 2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert [r.maps for r in enumerate_labeled(3, jobs=100_000)] == serial
    assert sizes == [2, 2]


def _count_checks(monkeypatch):
    """Count the axiom checks, core._maps_report under axiom_report and Rack(maps),
    and the calls of the checked Rack constructor."""
    calls = {"axiom_report": 0, "Rack": 0}
    report, init = core._maps_report, Rack.__init__

    def counting_report(cols):
        calls["axiom_report"] += 1
        return report(cols)

    def counting_init(self, maps):
        calls["Rack"] += 1
        init(self, maps)

    monkeypatch.setattr(core, "_maps_report", counting_report)
    monkeypatch.setattr(Rack, "__init__", counting_init)
    return calls


def test_search_outputs_are_checked_without_a_rack_each(monkeypatch):
    calls = _count_checks(monkeypatch)
    rep = enumerate_classes(5)
    assert sum(1 for _ in enumerate_labeled(5)) == rep.labeled_count
    assert calls == {"axiom_report": 0, "Rack": 0}


def test_a_non_rack_from_the_search_raises_the_checked_constructors_error(monkeypatch):
    n, at = 5, 100     # not a multiple of ORBIT_BATCH: the bad tuple is mid-batch
    perms = _tables(n)[0]
    # f_0 = (0 1) and the identity elsewhere: f_{(0)f_0} = f_1 is not f_0
    bad = (perms.index((1, 0, 2, 3, 4)),) + (0,) * (n - 1)
    with pytest.raises(NotARackError) as direct:
        Rack(tuple(perms[r] for r in bad))
    before = list(itertools.islice(enumerate_labeled(n), at))
    branches = enumeration._branches

    def injected(n, ranks, jobs, prune):
        outputs = branches(n, ranks, jobs, prune)
        yield from itertools.islice(outputs, at)
        yield bad
        yield from outputs

    monkeypatch.setattr(enumeration, "_branches", injected)
    calls = _count_checks(monkeypatch)
    stream = enumerate_labeled(n)
    assert list(itertools.islice(stream, at)) == before
    with pytest.raises(NotARackError) as exc:
        next(stream)
    assert exc.value.report == direct.value.report
    assert calls == {"axiom_report": 1, "Rack": 1}
    calls.update(axiom_report=0, Rack=0)
    with pytest.raises(NotARackError) as exc:
        enumerate_classes(n)
    assert exc.value.report == direct.value.report
    assert calls == {"axiom_report": 1, "Rack": 1}
