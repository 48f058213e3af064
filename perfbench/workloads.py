"""The four workloads: their operations, inputs and output checks.

A workload is a fixed list of operations.  Every round runs each of them
once, in order, so every run attempts whole rounds of the same work.  Each
operation has a check that runs right after it, outside the timed region;
verify_once() holds the checks that are too slow to repeat every round.
Program functions are looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import checks
import inputs
from checks import CheckFailed, require

ENUMERATE_ORDERS = (4, 5)
SWEEP_ORDER = 10
CHERNOFF = {"n": 400, "p": 0.2, "eps": 0.2, "trials": 2_000_000}
SUBSET = {"p": 0.3, "eps": 0.5, "trials": 20_000}
FIND_W = {"delta": 64, "p": 0.3}


@dataclass
class Op:
    label: str                      # what the operation does, for result files
    metric: str                     # the end-to-end metric its time adds to
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list
    verify_once: Callable[[], None]   # checks too slow to repeat every round
    counts: dict = field(default_factory=dict)  # per-round counts, same every round


def generate(name, seed):
    """The inputs of a workload, from the seed alone; the set-up probe times this."""
    if name.startswith("codec"):
        return inputs.codec_inputs(name, seed)
    if name == "analysis":
        return inputs.analysis_rack_table(seed)
    return None


def build(name, seed, data):
    """Turn generated inputs into the workload's operations."""
    import racklab
    return {"codec-greedy": _codec, "codec-lehmer": _codec,
            "enumerate": _enumerate, "analysis": _analysis}[name](racklab, name, seed, data)


# ---------------------------------------------------------------------------

def _codec(racklab, name, seed, tables):
    core, codec = racklab.core, racklab.codec
    ops = []
    counts = {"stream_bytes": 0, "header_bits": 0, "residual_bits": 0, "bitmap_bits": 0}
    for rack_name, table in tables:
        n = len(table)
        params = codec.CodecParams.default(n) if name == "codec-greedy" else codec.CodecParams(1, 1)
        extremal = rack_name == "all_2_cycles_256"
        ops += _codec_ops(core, codec, rack_name, table, params, extremal, counts)

    def verify_once():
        for rack_name, table in tables:
            require(checks.is_rack(table), f"{rack_name}: generated table is not a rack")
        rack = core.rack_from_table(checks.CONFORMANCE_TABLE)
        data = codec.encode(rack)
        require(data == checks.CONFORMANCE_BYTES, "conformance vector differs")
        require(codec.decode(data).table == checks.CONFORMANCE_TABLE,
                "conformance vector does not decode to the trivial rack")

    return Workload(ops, verify_once, counts)


def _codec_ops(core, codec, rack_name, table, params, extremal, counts):
    # Round k encodes the rack decoded in round k-1, so from the second round
    # on, comparing with the previous bytes checks encode(decode(b)) == b.
    state = {"input": None, "bytes": None, "decoded": None}

    def check_table(result):
        require(isinstance(result, core.Rack), f"{rack_name}: rack_from_table rejected a rack")
        require(result.table == table, f"{rack_name}: rack table differs from its input")
        if state["decoded"] is None:
            state["input"] = result

    def run_encode():
        rack = state["decoded"] if state["decoded"] is not None else state["input"]
        return codec.encode_with_stats(rack, params)

    def check_encode(result):
        data, stats = result
        previous, state["bytes"] = state["bytes"], data
        if previous is not None:
            require(data == previous, f"{rack_name}: encode(decode(b)) != b")
            return
        counts["stream_bytes"] += len(data)
        counts["header_bits"] += stats.header_bits
        counts["residual_bits"] += stats.residual_bits
        counts["bitmap_bits"] += checks.check_stream(table, data, params.delta, params.cap_l,
                                                     stats, extremal)

    def check_decode(result):
        require(result.table == table, f"{rack_name}: decoded table differs from the input")
        state["decoded"] = result

    return [
        Op(f"check {rack_name}", "check_s", lambda: core.rack_from_table(table), check_table),
        Op(f"encode {rack_name}", "encode_s", run_encode, check_encode),
        Op(f"decode {rack_name}", "decode_s", lambda: codec.decode(state["bytes"]),
           check_decode),
    ]


# ---------------------------------------------------------------------------

def _enumerate(racklab, name, seed, _data):
    enumeration = racklab.enumeration
    expected = {}
    reports = {}

    def make(n):
        def check(report):
            if n not in expected:
                expected[n] = checks.labeled_count_from_classes(report.witnesses)
                reports[n] = report
            else:
                require(report.witnesses == reports[n].witnesses,
                        f"n={n}: classes changed between rounds")
            checks.check_class_report(n, report, expected[n])
        return Op(f"enumerate_classes({n})", "enumerate_s",
                  lambda: enumeration.enumerate_classes(n, jobs=1), check)

    def verify_once():
        for n in ENUMERATE_ORDERS:
            stream = (rack.maps for rack in enumeration.enumerate_labeled(n, jobs=1))
            emitted = checks.check_labeled_stream(n, stream)
            require(emitted == reports[n].labeled_count,
                    f"n={n}: stream length differs from the labeled count")

    return Workload([make(n) for n in ENUMERATE_ORDERS], verify_once)


# ---------------------------------------------------------------------------

def _analysis(racklab, name, seed, table):
    analysis = racklab.analysis
    rack = racklab.core.rack_from_table(table)
    if not isinstance(rack, racklab.core.Rack):
        raise CheckFailed("analysis input rejected by rack_from_table")
    n = rack.n
    rng = random.Random(seed)
    chernoff_seed, subset_seed, w_seed = (rng.randrange(2**32) for _ in range(3))
    c, s, w = CHERNOFF, SUBSET, FIND_W
    ops = [
        Op(f"zeta_bound_sweep({SWEEP_ORDER})", "analysis_s",
           lambda: analysis.zeta_bound_sweep(SWEEP_ORDER),
           lambda report: checks.check_zeta_sweep(report, SWEEP_ORDER)),
        Op("chernoff_check", "analysis_s",
           lambda: analysis.chernoff_check(c["n"], c["p"], c["eps"], c["trials"],
                                           seed=chernoff_seed, threads=1),
           lambda report: checks.check_chernoff(report, c["n"], c["p"], c["eps"],
                                                c["trials"])),
        Op("random_subset_check", "analysis_s",
           lambda: analysis.random_subset_check(rack, s["p"], s["eps"], s["trials"],
                                                seed=subset_seed, threads=1),
           lambda report: checks.check_random_subset(report, n, s["p"], s["eps"],
                                                     s["trials"])),
        Op("find_W", "analysis_s",
           lambda: analysis.find_W(rack, w["delta"], w["p"], seed=w_seed),
           lambda result: checks.check_find_w(result, n)),
    ]
    return Workload(ops, lambda: None)
