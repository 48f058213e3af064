"""racklab benchmark: one workload per process, serial (jobs=1, threads=1).

    python3 perfbench/run.py --workload codec-greedy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's operations until the next round would
end after --seconds (always at least MIN_ROUNDS rounds), checks every
output, prints each metric by name with its unit, and ends with one JSON
line {"correct", "attempted", "failed", "metrics"}.  Every operation is
timed between two runs of a fixed calibration, and the gated round time is
given in units of it, so that most of the host's speed, which drifts by up
to 2x over tens of seconds, cancels out.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the same rounds run with
spans around racklab's public functions and the metrics are per layer.
Result and trace files go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread everywhere; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("codec-greedy", "codec-lehmer", "enumerate", "analysis")
MIN_ROUNDS = 2
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
CALIBRATION_ITERATIONS = 50_000
CALIBRATION_COLUMNS = 16


class Calibration:
    """A fixed piece of work that never touches racklab: the unit of round_norm.

    Half of it is pure Python (tuples, a dict of at most 97 * 89 keys,
    small-int arithmetic), half numpy gathers over a 256 x 256 table (the
    shape of work of the numpy axiom check).  The host's slow spells slow
    pure-Python loops about twice as much as numpy gathers, and racklab's
    workloads mix the two, so the unit mixes them too.
    """

    def __init__(self):
        import numpy as np
        n = 256
        self.np = np
        self.table = np.array([[(2 * y - x) % n for y in range(n)] for x in range(n)],
                              dtype=np.int64)

    def work(self):
        counts = {}
        acc = 0
        for i in range(CALIBRATION_ITERATIONS):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
            acc += key[0] * key[1] ^ (i & 255)
        t = self.table
        for z in range(CALIBRATION_COLUMNS):
            col = t[:, z]
            acc += int((col[t] == t[self.np.ix_(col, col)]).sum())
        return acc + len(counts)

    def timed(self):
        """Seconds for one run of work(), with the collector off, so that what
        the program left on the heap does not change the unit."""
        gc.disable()
        try:
            start = time.perf_counter()
            self.work()
            return time.perf_counter() - start
        finally:
            gc.enable()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "racklab" / "__init__.py").is_file():
        print(f"perfbench: no racklab sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_only:
        signal.alarm(SETUP_TIMEOUT_S)
        import racklab  # noqa: F401  (the import is part of the timed set-up)
        workloads.generate(args.workload, args.seed)
        return 0

    import racklab
    if Path(racklab.__file__).resolve().parent != SRC / "racklab":
        print(f"perfbench: racklab was imported from {racklab.__file__}", file=sys.stderr)
        return 2
    setup_s = measure_setup(args)
    workload = workloads.build(args.workload, args.seed,
                               workloads.generate(args.workload, args.seed))

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    result = run_rounds(workload, args.seconds, tracer)
    problems = result["problems"]
    try:
        workload.verify_once()
    except workloads.CheckFailed as exc:
        problems.append(f"verify: {exc}")
    except Exception:
        problems.append("verify raised:\n" + traceback.format_exc())

    report = summarise(args, workload, result, setup_s)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        doc = tracer.dump()
        doc["rounds"] = result["layers"]
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(doc))

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print_human(report)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all four, each in its own process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args):
    """Every workload in its own process, one after another; their output as is."""
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = subprocess.run(cmd, cwd=ROOT).returncode
        if code:
            return code
    return 0


def measure_setup(args):
    """Median wall time of fresh processes that import racklab and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        # no timeout here: with one, the wait polls and rounds times up to 50 ms;
        # the probe ends itself through SIGALRM instead
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_rounds(workload, seconds, tracer):
    """Whole rounds until the next one would overrun; per-op times and checks.

    A calibration runs before the first operation and right after every
    operation, so each operation lies between two of them; its normalised
    time is its wall time over the mean of those two, and a round's
    normalised time is the sum of its operations'.
    """
    times = {op.label: [] for op in workload.ops}
    norm = {op.label: [] for op in workload.ops}
    calibration = Calibration()
    calib = [calibration.timed()]
    round_norms = []
    attempted = failed = 0
    problems, layers, durations = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_norm = 0.0
        if tracer is not None:
            tracer.reset_round()
        for op in workload.ops:
            attempted += 1
            gc.collect()
            try:
                if tracer is None:
                    t0 = time.perf_counter()
                    out = op.run()
                    dt = time.perf_counter() - t0
                else:
                    with tracer.installed():
                        t0 = time.perf_counter()
                        with tracer.span(f"op {op.label}"):
                            out = op.run()
                        dt = time.perf_counter() - t0
            except Exception:
                failed += 1
                problems.append(f"{op.label} raised:\n{traceback.format_exc()}")
                calib.append(calibration.timed())
                continue
            calib.append(calibration.timed())
            times[op.label].append(dt)
            norm[op.label].append(2 * dt / (calib[-2] + calib[-1]))
            round_norm += norm[op.label][-1]
            try:
                op.check(out)
            except Exception as exc:  # CheckFailed, or a check tripping on bad output
                problems.append(f"{op.label}: {exc!r}")
            del out
        if tracer is not None:
            layers.append({"inclusive_s": dict(tracer.inclusive), "self_s": dict(tracer.self_time),
                           "calls": dict(tracer.calls), "yields": dict(tracer.yields)})
        durations.append(time.perf_counter() - round_start)
        round_norms.append(round_norm)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds:
            break
    return {"times": times, "norm": norm, "calib": calib, "round_norms": round_norms,
            "attempted": attempted, "failed": failed,
            "problems": problems, "layers": layers, "rounds": len(durations),
            "measured_s": time.perf_counter() - start}


def _median(values):
    return statistics.median(values) if values else 0.0


def summarise(args, workload, result, setup_s):
    op_medians = {op.label: _median(result["times"][op.label]) for op in workload.ops}
    by_metric = {}
    for op in workload.ops:
        by_metric[op.metric] = by_metric.get(op.metric, 0.0) + op_medians[op.label]
    named = {metric: {"value": value, "unit": "s"} for metric, value in by_metric.items()}
    named["round_s"] = {"value": sum(op_medians.values()), "unit": "s"}
    named["calibration_s"] = {"value": _median(result["calib"]), "unit": "s"}
    if "stream_bytes" in workload.counts:
        named["stream_bytes"] = {"value": workload.counts["stream_bytes"], "unit": "bytes"}
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "round_norm": {"value": _median(result["round_norms"]), "unit": "calib"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": result["rounds"],
              "measured_s": result["measured_s"], "attempted": result["attempted"],
              "failed": result["failed"], "op_times_s": result["times"],
              "op_times_calib": result["norm"], "calibration_s": result["calib"],
              "round_norms": result["round_norms"],
              "named": named, "end_to_end": end_to_end}
    if args.trace:
        report["per_layer"] = per_layer(result["layers"], workload.counts)
    return report


def per_layer(layers, counts):
    """Median over rounds of each layer function's inclusive time, plus counts."""
    from spans import LAYER_FUNCTIONS

    def med(kind, name):
        return _median([layer[kind].get(name, 0) for layer in layers])

    out = {f"{name}_s": {"value": med("inclusive_s", name), "unit": "s"}
           for name, _, _ in LAYER_FUNCTIONS}
    for key in ("header_bits", "residual_bits", "bitmap_bits"):
        out[f"codec.{key}"] = {"value": counts.get(key, 0), "unit": "bits"}
    out["enumeration.labeled_racks"] = {
        "value": int(med("yields", "enumeration.enumerate_labeled")), "unit": "count"}
    for name in ("core.axiom_report", "core.rack_from_table"):
        out[f"{name}_calls"] = {"value": int(med("calls", name)), "unit": "count"}
    return out


def print_human(report):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"rounds {report['rounds']}  attempted {report['attempted']}  "
          f"failed {report['failed']}  measured {report['measured_s']:.1f} s")
    for section in ("named", "end_to_end", "per_layer"):
        for name, metric in report.get(section, {}).items():
            print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
