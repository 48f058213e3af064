import hashlib
import json
import math

import pytest

from racklab import (CodecParams, dihedral_quandle, encode, format_rack, rack_graph, to_dot,
                     trivial_rack)
from racklab import analysis, cli, codec
from racklab.cli import main

from _corpus import broadcast_trivial_rack, family_racks, unchecked_non_rack


@pytest.fixture
def d3_file(tmp_path):
    path = tmp_path / "d3.rack"
    path.write_text(format_rack(dihedral_quandle(3)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_ok(capsys, d3_file):
    code, out, _ = run(capsys, "check", d3_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_rack"] and payload["is_quandle"]


def test_check_violation(capsys, tmp_path):
    path = tmp_path / "bad.rack"
    path.write_text("2\n0 1\n1 0\n")  # id/swap pair
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["violations"][0]["kind"] == "ConjugationFail"
    assert payload["violations"][0]["witness"] == [0, 0, 1]


def test_check_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.rack"
    path.write_text("2\n0 x\n1 0\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 2" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.rack"))
    assert code == 2


def test_encode_decode_round_trip(capsys, d3_file, tmp_path):
    rke = str(tmp_path / "d3.rke")
    code, _, _ = run(capsys, "encode", d3_file, "--out", rke)
    assert code == 0
    code, out, _ = run(capsys, "decode", rke)
    assert code == 0
    assert out == format_rack(dihedral_quandle(3))


def test_decode_corrupt(capsys, tmp_path):
    path = tmp_path / "bad.rke"
    path.write_bytes(b"RKE1\x00")
    code, _, err = run(capsys, "decode", str(path))
    assert code == 2
    assert "corrupt" in err


def test_stats(capsys, d3_file):
    code, out, _ = run(capsys, "stats", d3_file, "--delta", "2", "--cap-l", "1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == [1, 2, 0]
    assert payload["zeta"] == 2.0
    assert payload["bound_n2_over_4"] == 2.25


def test_stats_equality_case(capsys, tmp_path):
    from racklab import permutation_rack
    rack = permutation_rack((1, 0, 3, 2))
    path = tmp_path / "inv.rack"
    path.write_text(format_rack(rack))
    code, out, _ = run(capsys, "stats", str(path), "--format", "json")
    payload = json.loads(out)
    assert payload["zeta"] == payload["bound_n2_over_4"] == 4.0


def test_stats_trivial_zeta_zero(capsys, tmp_path):
    path = tmp_path / "t8.rack"
    path.write_text(format_rack(trivial_rack(8)))
    code, out, _ = run(capsys, "stats", str(path), "--format", "json")
    assert json.loads(out)["zeta"] == 0.0


def test_audit(capsys, d3_file):
    code, out, _ = run(capsys, "audit", d3_file, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["out_regular_components"] is True


def test_audit_rejects_corrupt_table(capsys, tmp_path):
    path = tmp_path / "corrupt.rack"
    path.write_text("2\n0 1\n1 0\n")
    code, _, err = run(capsys, "audit", str(path))
    assert code == 1


def test_encoder_inconsistency_exits_with_domain_code(capsys, monkeypatch, tmp_path):
    # a family that passed no axiom check reaches build_info's consistency checks
    monkeypatch.setattr(cli, "load_rack", lambda path: unchecked_non_rack())
    code, _, err = run(capsys, "audit", "any.rack", "--delta", "1", "--cap-l", "1")
    assert code == 1
    assert "not closed" in err
    rke = tmp_path / "out.rke"
    code, _, err = run(capsys, "encode", "any.rack", "--delta", "1", "--cap-l", "1",
                       "--out", str(rke))
    assert code == 1
    assert "not closed" in err and not rke.exists()


def _flipped_stream():
    # bit 95 (byte 11, mask 0x01) of this stream lies in a restriction image
    data = bytearray(encode(trivial_rack(4), CodecParams(2, 2)))
    data[11] ^= 0x01
    return bytes(data)


NOT_A_RACK = "2\n0 1\n1 0\n"


@pytest.mark.parametrize("argv, content, code, message", [
    (("encode",), None, 2, "No such file"),
    (("stats",), None, 2, "No such file"),
    (("audit",), None, 2, "No such file"),
    (("analyze", "random-subset", "--rack"), None, 2, "No such file"),
    (("encode",), NOT_A_RACK, 1, "not a rack"),
    (("stats",), NOT_A_RACK, 1, "not a rack"),
    (("analyze", "random-subset", "--rack"), NOT_A_RACK, 1, "not a rack"),
    (("decode",), _flipped_stream(), 1, "inconsistent stream"),
    (("check",), b"2\n0 1\n\xfe 0\n", 2, "line 1, col 1: not UTF-8 text"),
    (("encode",), b"\xff\n", 2, "line 1, col 1: not UTF-8 text"),
    (("encode", "--delta", "0"), "1\n0\n", 2, "delta must be in 1..65535, got 0"),
    (("stats", "--cap-l", "-1"), "1\n0\n", 2, "cap_l must be in 0..65535, got -1"),
    (("audit", "--delta", "70000"), "1\n0\n", 2, "delta must be in 1..65535, got 70000"),
])
def test_error_table_exit_codes(capsys, tmp_path, argv, content, code, message):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    rc, out, err = run(capsys, *argv, str(path))
    assert rc == code
    assert err.startswith("error: ") and message in err
    assert out == ""


def test_encode_order_over_header_limit_exits_with_resource_code(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "load_rack", lambda path: broadcast_trivial_rack(65536))
    rke = tmp_path / "big.rke"
    code, _, err = run(capsys, "encode", "any.rack", "--out", str(rke))
    assert code == 3
    assert "u16 header limit" in err and not rke.exists()


def test_decode_takes_no_codec_parameters(capsys):
    for flag in ("--delta", "--cap-l"):
        with pytest.raises(SystemExit) as exc:
            main(["decode", "any.rke", flag, "1"])
        assert exc.value.code == 2


def test_enumerate_writes_witnesses(capsys, tmp_path):
    wit = str(tmp_path / "wit")
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--witness-dir", wit, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 2 and payload["witness_dir"] == wit
    summary = json.loads((tmp_path / "wit" / "summary.json").read_text())
    assert summary["classes"] == 2 and "duration_ms" in summary


def test_enumerate_too_large(capsys):
    code, _, _ = run(capsys, "enumerate", "--n", "9")
    assert code == 3


@pytest.mark.parametrize("n", ["0", "-2"])
def test_enumerate_non_positive_order_exits_with_io_code(capsys, n):
    code, out, err = run(capsys, "enumerate", "--n", n)
    assert code == 2 and out == ""
    assert err == f"error: order {n} outside 1..7\n"


def test_json_output_thread_independent(capsys):
    _, out1, _ = run(capsys, "enumerate", "--n", "3", "--threads", "1",
                     "--format", "json")
    _, out2, _ = run(capsys, "enumerate", "--n", "3", "--threads", "2",
                     "--format", "json")
    assert out1 == out2


def test_enumerate_reports_the_bounded_quantity(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # log2 of the class count over n^2, which the paper bounds by 1/4 + o(1)
    assert payload["classes"] == 6
    assert payload["log2_classes_over_n2"] == pytest.approx(math.log2(6) / 9)


def test_analyze_rejects_unknown_kinds_and_threads_default_to_one(monkeypatch):
    # claim-calc is an identity of exact coefficients, tested in test_analysis;
    # the thread count comes from --threads alone, not from the environment
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "claim-calc"])
    assert exc.value.code == 2
    monkeypatch.setenv("RACKLAB_THREADS", "4")
    for argv in (["analyze", "chernoff"], ["enumerate", "--n", "3"]):
        assert cli.build_parser().parse_args(argv).threads == 1


def test_analyze_zeta_sweep(capsys):
    code, out, _ = run(capsys, "analyze", "zeta-sweep", "--n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and payload["params"]["mode"] == "exhaustive"
    assert payload["params"]["trials"] == payload["seed"] == 0
    code, out, _ = run(capsys, "analyze", "zeta-sweep", "--n", "200", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] and payload["params"]["mode"] == "certificate"
    assert payload["statistic"]["max_zeta"] == payload["bound"] == 10_000


def test_analyze_chernoff(capsys):
    code, out, _ = run(capsys, "analyze", "chernoff", "--n", "200", "--p", "0.2",
                       "--eps", "0.5", "--trials", "5000", "--format", "json")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("chernoff", "--p", "2"),
    ("chernoff", "--eps", "0"),
    ("chernoff", "--trials", "0"),
    ("chernoff", "--n", "-5"),
    ("chernoff", "--seed", "-1"),
    ("random-subset", "--n", "5", "--p", "0"),
    ("random-subset", "--n", "5", "--eps", "1.5"),
    ("random-subset", "--n", "5", "--trials", "0"),
    ("random-subset", "--n", "5", "--seed", "-1"),
    ("find-w", "--n", "16", "--threshold", "nan"),
    ("find-w", "--n", "16", "--threshold", "inf"),
    ("find-w", "--n", "16", "--p", "-1", "--attempts", "-3"),
    ("find-w", "--n", "16", "--p", "1.5"),
    ("find-w", "--n", "16", "--attempts", "0"),
    ("find-w", "--n", "16", "--delta", "-1"),
])
def test_analyze_parameter_out_of_range_exits_with_io_code(capsys, argv):
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "required" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("--n", "0"), "n >= 1 required"),
    (("--n", "-3"), "n >= 1 required"),
])
def test_analyze_zeta_sweep_out_of_range_exits_with_io_code(capsys, argv, message):
    code, out, err = run(capsys, "analyze", "zeta-sweep", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_analyze_find_w_unseparated_split_exits_with_domain_code(capsys, monkeypatch):
    # D_5 is one component under all colours; calling vertex 0 alone high
    # splits that component, which find_W reports as a typed error
    monkeypatch.setattr(analysis, "degree_split",
                        lambda rack, delta: (tuple(range(1, rack.n)), (0,)))
    code, out, err = run(capsys, "analyze", "find-w", "--family", "dihedral", "--n", "5",
                         "--p", "1", "--threshold", "0")
    assert code == 1 and out == ""
    assert err == "error: degree split is not separated in the sampled graph\n"


@pytest.mark.parametrize("command", [("audit",), ("stats", "--dot")])
def test_one_greedy_pass_per_command(capsys, monkeypatch, tmp_path, command):
    path = tmp_path / "d8.rack"
    path.write_text(format_rack(dihedral_quandle(8)))
    calls = []
    original = codec.greedy_merge_order

    def counting(*args, **kwargs):
        calls.append(args[0].n)
        return original(*args, **kwargs)

    monkeypatch.setattr(codec, "greedy_merge_order", counting)
    code, out, _ = run(capsys, *command, str(path), "--delta", "7", "--cap-l", "2",
                       "--format", "json")
    assert code == 0 and json.loads(out)
    assert calls == [8]


@pytest.mark.parametrize("argv", [
    ("find-w", "--n", "0"),
    ("find-w", "--family", "trivial", "--n", "-1"),
    ("random-subset", "--n", "0"),
])
def test_analyze_family_order_out_of_range_exits_with_io_code(capsys, argv):
    code, out, err = run(capsys, "analyze", *argv)
    assert code == 2 and out == ""
    assert err == "error: n >= 1 required\n"


def test_analyze_find_w_takes_delta_zero(capsys):
    code, out, _ = run(capsys, "analyze", "find-w", "--n", "6", "--delta", "0",
                       "--attempts", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["delta"] == 0
    code, out, _ = run(capsys, "analyze", "find-w", "--n", "6", "--attempts", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["delta"] == 1


# sha256 of the JSON output of audit and stats on three corpus racks
PINNED_REPORTS = [
    ("dihedral_8", "audit", (),
     "d1ee047cfb4d253ce5fa70dfaf07868d639fb07ff4af4f64a182bae591fd918c"),
    ("dihedral_8", "audit", ("--delta", "2", "--cap-l", "2"),
     "bab443187c420d0d62184769fb075e1fc9060dcda515e7888e4cf530753fa741"),
    ("dihedral_8", "stats", (),
     "831f9482a1cbdeae7329b2dc965421d27bd818286875bb2ddc3597296b789fa5"),
    ("dihedral_8", "stats", ("--delta", "2", "--cap-l", "2"),
     "2812de2116b71bb44e5dff3dceeab951ae57b26afb45532d41a719a14463cd67"),
    ("conj_d4", "audit", (),
     "aad193b0332e00660bc017441fbd251a98f3a6350c04a423fa18ca424f49ae1e"),
    ("conj_d4", "audit", ("--delta", "2", "--cap-l", "2"),
     "9a44179778d9688c98eb7a080fa884d9f8ece4a6827b35f2fa731e365b28133a"),
    ("conj_d4", "stats", (),
     "727beb7a1f89a7a4be0140e1638d4b3eb1cc45011f58c26e20b39fa9ff30006c"),
    ("conj_d4", "stats", ("--delta", "2", "--cap-l", "2"),
     "5b437d8f24a73ae62c5d8044e3e550d1c579ca090070302f871961c9f77fb01e"),
    ("mixed_8", "audit", (),
     "da4b8d2a2dac89e76cef7b6a1204cb3e308a5b90ccb7284a19f138a4aa9ea472"),
    ("mixed_8", "audit", ("--delta", "2", "--cap-l", "2"),
     "d9ecfa335fe74cfdecede67295a22cea4bbdbbb648c93af327f97092703ec49f"),
    ("mixed_8", "stats", (),
     "c20c0dd923945ab6fe820f22ab487288b072a014e3608955d46f4611cfbc339c"),
    ("mixed_8", "stats", ("--delta", "2", "--cap-l", "2"),
     "506e435ce6a292c7b008a2857d7dfc78de1b542d95d4b6d7202eefcf54f4f228"),
]


@pytest.mark.parametrize("name, command, params, digest", PINNED_REPORTS)
def test_audit_and_stats_json_are_pinned(capsys, tmp_path, name, command, params, digest):
    path = tmp_path / f"{name}.rack"
    path.write_text(format_rack(dict(family_racks(8))[name]))
    code, out, _ = run(capsys, command, str(path), *params, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 over family_racks(8), rack after rack, of to_dot(rack_graph(rack)),
# and of the exit code and output of `stats --dot` and of `audit`, as JSON
FAMILY_GRAPH_PINS = {
    "dot": "9bc27c6f4f44116bffe51bc3f7e17e5110c22aa043d87e9f19d732907378760e",
    "stats": "fcfbb305fcedb52d2061ce2d3dd479d7e3f504911a9058ecebad5f8b04336568",
    "audit": "128df5ae7349733be50ae583cfeb941a8e6dde8b98e2134a9d0bec74b33ff29b",
}


@pytest.mark.parametrize("kind", sorted(FAMILY_GRAPH_PINS))
def test_family_graph_outputs_are_pinned(capsys, tmp_path, kind):
    digest = hashlib.sha256()
    for name, rack in family_racks(8):
        if kind == "dot":
            digest.update(to_dot(rack_graph(rack)).encode())
            continue
        path = tmp_path / f"{name}.rack"
        path.write_text(format_rack(rack))
        argv = ("stats", "--dot") if kind == "stats" else ("audit",)
        code, out, _ = run(capsys, *argv, str(path), "--format", "json")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == FAMILY_GRAPH_PINS[kind]


def test_analyze_find_w_reports_without_failing(capsys):
    code, out, _ = run(capsys, "analyze", "find-w", "--family", "conj-s3",
                       "--delta", "1", "--p", "0.8", "--threshold", "1",
                       "--seed", "42", "--format", "json")
    assert code == 0
    assert json.loads(out)["pass"]
    # non-certification still exits 0: it is reported, not fatal
    code, out, _ = run(capsys, "analyze", "find-w", "--family", "conj-s3",
                       "--delta", "1", "--p", "0.8", "--threshold", "10",
                       "--attempts", "3", "--format", "json")
    assert code == 0
    assert not json.loads(out)["pass"]


def test_dot_output(capsys, d3_file):
    code, out, _ = run(capsys, "check", d3_file, "--dot", "--format", "json")
    assert code == 0
    assert "digraph" in json.loads(out)["dot"]


def test_text_format(capsys, d3_file):
    code, out, _ = run(capsys, "check", d3_file)
    assert code == 0
    assert "is_rack: True" in out
