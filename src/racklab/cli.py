"""Command line front end.

Subcommands: check, enumerate, encode, decode, stats, audit, analyze.
Exit codes: 0 success, 1 domain failure (axiom/audit/check), 2 I/O or
parse error, 3 resource cap.  A command returns 0 or 1 itself.  What it
raises is looked up in one table, ERRORS, in main: each row maps an
exception type to its exit code and the prefix of the one stderr line
"error: <prefix><message>".  JSON output is canonical (sorted keys) and
independent of the thread count; timing appears only in witness summary
files, never on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import analysis, codec, enumeration
from .codec import (AuditFail, CodecParams, CodecParamsError, CorruptStream,
                    EncodeConsistencyError, InconsistentDecode, OrderTooLargeForHeader)
from .core import (AxiomReport, NotARackError, Rack, RackParseError,
                   conjugation_quandle, dihedral_quandle, format_rack, load_rack,
                   rack_from_table, read_rack_table, symmetric_group_table,
                   trivial_rack)
from .graph import component_out_degree_constant, rack_graph, to_dot

EXIT_OK, EXIT_DOMAIN, EXIT_IO, EXIT_RESOURCE = 0, 1, 2, 3

# (exception type, exit code, message prefix); the first row that matches wins
ERRORS = (
    (OSError, EXIT_IO, ""),
    (RackParseError, EXIT_IO, ""),
    (NotARackError, EXIT_DOMAIN, ""),
    (CorruptStream, EXIT_IO, "corrupt stream: "),
    (InconsistentDecode, EXIT_DOMAIN, "inconsistent stream: "),
    (EncodeConsistencyError, EXIT_DOMAIN, "inconsistent encoding: "),
    (AuditFail, EXIT_DOMAIN, "audit failed: "),
    (OrderTooLargeForHeader, EXIT_RESOURCE, ""),
    (CodecParamsError, EXIT_IO, ""),
    (enumeration.OrderTooLarge, EXIT_RESOURCE, ""),
    (enumeration.OrderOutOfRange, EXIT_IO, ""),
    (analysis.CheckParameterError, EXIT_IO, ""),
    (analysis.DegreeSplitError, EXIT_DOMAIN, ""),
)


def _emit(payload: dict, args, text_lines=None) -> None:
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = text_lines if text_lines is not None else _render_text(payload)
        out = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _render_text(payload, prefix="") -> list:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_render_text(value, prefix + "  "))
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _params(args, n: int) -> CodecParams:
    default = CodecParams.default(n)
    delta = args.delta if args.delta is not None else default.delta
    cap_l = args.cap_l if args.cap_l is not None else default.cap_l
    return CodecParams(delta=delta, cap_l=cap_l)


def _report_dict(report: AxiomReport) -> dict:
    return {
        "n": report.n,
        "is_rack": report.is_rack,
        "is_quandle": report.is_quandle,
        "violations": [{"kind": v.kind, "witness": list(v.witness)}
                       for v in report.violations],
    }


def cmd_check(args) -> int:
    result = rack_from_table(read_rack_table(args.path))
    if isinstance(result, Rack):
        payload = _report_dict(AxiomReport(result.n, True, result.is_quandle, ()))
        if args.dot:
            payload["dot"] = to_dot(rack_graph(result))
        _emit(payload, args)
        return EXIT_OK
    _emit(_report_dict(result), args)
    return EXIT_DOMAIN


def cmd_enumerate(args) -> int:
    report = enumeration.enumerate_classes(args.n, jobs=args.threads)
    payload = {
        "n": args.n,
        "labeled": report.labeled_count,
        "classes": report.class_count,
        "quandle_classes": report.quandle_class_count,
        # the quantity the paper bounds by 1/4 + o(1)
        "log2_classes_over_n2": math.log2(report.class_count) / args.n ** 2,
        "reference_unverified": {
            "classes": enumeration.REFERENCE_RACK_CLASSES.get(args.n),
            "quandle_classes": enumeration.REFERENCE_QUANDLE_CLASSES.get(args.n),
        },
    }
    if args.witness_dir:
        enumeration.write_witnesses(report, args.witness_dir)
        payload["witness_dir"] = args.witness_dir
    _emit(payload, args)
    return EXIT_OK


def cmd_encode(args) -> int:
    rack = load_rack(args.path)
    data = codec.encode(rack, _params(args, rack.n))
    out = args.out or (os.path.splitext(args.path)[0] + ".rke")
    with open(out, "wb") as fh:
        fh.write(data)
    print(f"wrote {len(data)} bytes to {out}", file=sys.stderr)
    return EXIT_OK


def cmd_decode(args) -> int:
    with open(args.path, "rb") as fh:
        rack = codec.decode(fh.read())
    text = format_rack(rack)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    rack = load_rack(args.path)
    params = _params(args, rack.n)
    _, stats, info = codec._encode_with_info(rack, params)
    payload = {
        "n": stats.n,
        "delta": stats.delta,
        "cap_l": stats.cap_l,
        "eta": list(stats.eta),
        "cp": stats.cp,
        "zeta": stats.zeta,
        "residual_bits": stats.residual_bits,
        "header_bits": stats.header_bits,
        "bound_n2_over_4": stats.bound,
        "total_bytes": stats.total_bytes,
    }
    if args.dot:
        # order 1 has no info tuple, and no edges whatever T is
        t = info.t_order if info is not None else ()
        payload["dot"] = to_dot(rack_graph(rack, t))
    _emit(payload, args)
    return EXIT_OK


def cmd_audit(args) -> int:
    rack = load_rack(args.path)
    params = _params(args, rack.n)
    report = codec.merge_bound_audit(rack, params)
    regular = component_out_degree_constant(rack, range(rack.n))
    payload = {
        "n": report.n,
        "delta": report.delta,
        "cap_l": report.cap_l,
        "greedy_order": list(report.order),
        "drops": list(report.x_seq),
        "sum_drops": report.sum_x,
        "cp_t": report.cp_t,
        "x_after_t": report.x_after_t,
        "post_t_drops": [list(t) for t in report.post_t_drops],
        "invariance": "ok",
        "out_regular_components": regular,
    }
    _emit(payload, args)
    return EXIT_OK if regular else EXIT_DOMAIN


def _analysis_rack(args) -> Rack:
    if args.rack:
        return load_rack(args.rack)
    if args.family == "conj-s3":
        return conjugation_quandle(symmetric_group_table(3))
    if args.n < 1:
        raise analysis.CheckParameterError("n >= 1 required")
    # argparse admits no other family; dihedral is the default
    return trivial_rack(args.n) if args.family == "trivial" else dihedral_quandle(args.n)


def cmd_analyze(args) -> int:
    if args.kind == "find-w":
        delta = 1 if args.delta is None else args.delta
        result = analysis.find_W(_analysis_rack(args), delta, args.p,
                                 bad_threshold=args.threshold,
                                 max_attempts=args.attempts, seed=args.seed)
        report = result.to_report()
        report["seed"] = args.seed
        _emit(report, args)
        return EXIT_OK  # non-certification is reported, not fatal
    if args.kind == "zeta-sweep":
        report = analysis.zeta_bound_sweep(args.n)
    elif args.kind == "chernoff":
        report = analysis.chernoff_check(args.n, args.p, args.eps,
                                         trials=args.trials, seed=args.seed,
                                         threads=args.threads)
    else:  # random-subset; argparse admits no other kind
        report = analysis.random_subset_check(_analysis_rack(args), args.p, args.eps,
                                              trials=args.trials, seed=args.seed,
                                              threads=args.threads)
    _emit(report, args)
    return EXIT_OK if report.get("pass") else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="racklab",
                                     description="finite rack toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("check", help="validate a .rack file")
    p.add_argument("path")
    p.add_argument("--dot", action="store_true", help="include a DOT dump of the graph")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate", help="enumerate racks up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--witness-dir", default=None,
                   help="write one .rack per class plus summary.json")
    common(p)
    p.set_defaults(func=cmd_enumerate)

    def codec_params(p):
        p.add_argument("--delta", type=int, default=None)
        p.add_argument("--cap-l", dest="cap_l", type=int, default=None)

    p = sub.add_parser("encode", help="encode a .rack file to .rke")
    p.add_argument("path")
    codec_params(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a .rke file to .rack")
    p.add_argument("path")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="encoding statistics of a .rack file")
    p.add_argument("path")
    codec_params(p)
    p.add_argument("--dot", action="store_true")
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("audit", help="greedy merge audit and invariance checks")
    p.add_argument("path")
    codec_params(p)
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("analyze", help="numeric verification checks")
    p.add_argument("kind", choices=("zeta-sweep", "chernoff", "random-subset", "find-w"))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--attempts", type=int, default=100)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--rack", default=None, help="path to a .rack input")
    p.add_argument("--family", default=None,
                   choices=("trivial", "dihedral", "conj-s3"))
    common(p)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in ERRORS) as exc:
        code, prefix = next((code, prefix) for kind, code, prefix in ERRORS
                            if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
