"""CLI subcommands, exit codes, JSON report shape, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qgadget.cli
import qgadget.endo
import qgadget.gadget
import qgadget.qcore
from qgadget import (QuantumCoreCertificate, build_family, classical_strategy,
                     enumerate_homomorphisms, graph_from_edges, pair_swap_rep,
                     verify_quantum_core_certificate)
from qgadget.cli import main
from conftest import hom_exists_forward_checking


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_analyze_diamond(capsys):
    report = run_json(capsys, "analyze", "diamond")
    verdict = report["result"]["verdict"]
    assert verdict["kind"] == "no_gadget_at_all"
    assert verdict["certificate"]["mode"] == "disconnected"
    assert report["result"]["girths"]["girth"] == 3
    assert report["tool_version"]


def test_analyze_k4_known_gadget(capsys):
    report = run_json(capsys, "analyze", "K:4")
    verdict = report["result"]["verdict"]
    assert verdict["kind"] == "no_nonoracular_gadget"
    assert verdict["known_gadget"]["gadget"] == "cmpl(C:8)"


def test_analyze_text_mode(capsys):
    code, out, err = run_cli(capsys, "analyze", "C:5")
    assert code == 0 and "unknown" in out


def test_usage_errors_exit_1(capsys):
    code, out, err = run_cli(capsys, "analyze", "C:2")
    assert code == 1 and "error" in err
    code, out, err = run_cli(capsys, "analyze", "nonsense:graph")
    assert code == 1


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_size_bound_requires_flag(capsys):
    code, out, err = run_cli(capsys, "endos", "C:13", "--max-vertices", "13")
    assert code == 1 and "--i-know" in err
    report = run_json(capsys, "endos", "C:13", "--max-vertices", "13", "--i-know")
    assert report["inputs"]["i_know"] is True
    # oracle: endomorphisms of a cycle are its closed walks, counted by the
    # trace of the adjacency power; odd cycles are cores so these are the
    # 26 dihedral automorphisms
    import numpy as np
    adj = build_family("C:13").adj.astype(np.int64)
    count = int(np.trace(np.linalg.matrix_power(adj, 13)))
    assert report["result"]["count"] == count == 26


def test_schmidt_subcommand(capsys):
    report = run_json(capsys, "schmidt", "dprime", "--oracular")
    cert = report["result"]["certificate"]
    assert cert["mode"] == "disconnected"
    assert report["result"]["found"]


def test_endos_and_homs(capsys):
    report = run_json(capsys, "endos", "C:5")
    assert report["result"]["count"] == 10 and report["result"]["is_core"]
    # the fold (0, 1, 0, 3) sorts before the identity, which still comes first
    maps = run_json(capsys, "endos", "diamond")["result"]["endomorphisms"]
    assert maps[0] == [0, 1, 2, 3] and maps[1:] == sorted(maps[1:]) and [0, 1, 0, 3] in maps
    report = run_json(capsys, "endos", "diamond", "--limit", "2")
    assert report["result"]["endomorphisms"] == maps[:2] and report["result"]["is_core"] is None
    report = run_json(capsys, "homs", "cmpl(C:6)", "K:3", "--pin", "0=1", "--pin", "1=2",
                      "--limit", "1")
    assert report["result"]["count"] == 1
    assert report["result"]["homomorphisms"][0][:2] == [1, 2]


def test_endos_refuses_a_negative_limit(capsys):
    # a negative limit used to slice maps[:-2] and list 8 of the 10 maps
    code, out, err = run_cli(capsys, "endos", "C:5", "--limit", "-2", "--json")
    assert code == 1 and out == ""
    assert err == "error: --limit must be >= 0, got -2\n"
    assert run_json(capsys, "endos", "C:5", "--limit", "0")["result"]["endomorphisms"] == []


def test_conflicting_pins_exit_1(capsys):
    code, out, err = run_cli(capsys, "homs", "K:3", "K:3", "--pin", "0=1", "--pin", "0=2",
                             "--json")
    assert code == 1 and out == ""
    assert err == "error: vertex 0 is pinned to both 1 and 2\n"
    # repeating the same pin is allowed
    report = run_json(capsys, "homs", "K:3", "K:3", "--pin", "0=1", "--pin", "0=1")
    assert report["inputs"]["pins"] == {"0": 1} and report["result"]["count"] == 2


@pytest.mark.parametrize("argv", [
    ["gadget-check", "cmpl(C:6)", "0", "1", "K:3"],
    ["gadget-build", "complement-cycle", "3"],
    ["product-transfer", "cmpl(C:6)", "0", "1", "K:3", "K:3"]])
def test_corrupted_property_i_witness_exit_2(monkeypatch, capsys, argv):
    search = qgadget.gadget.enumerate_homomorphisms

    def corrupted(h, g, pins, limit):
        found = search(h, g, pins=pins, limit=limit)
        return [(found[0][1],) + found[0][1:]] if found else found

    monkeypatch.setattr(qgadget.gadget, "enumerate_homomorphisms", corrupted)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2 and out == ""
    assert err.startswith("verification failure: property (i) witness")


# inputs whose pinned searches ran for minutes before arc consistency


def _assert_homomorphism(h, g, m):
    assert len(m) == h.n
    assert all(g.has_edge(m[u], m[v]) for u, v in h.edges())


def test_gadget_check_box_c7_p6_into_c7(capsys):
    report = run_json(capsys, "gadget-check", "box(C:7,P:6)", "0", "30", "C:7")
    entries = report["result"]["property_i"]["entries"]
    h, g = build_family("box(C:7,P:6)"), build_family("C:7")
    hits = {pair: m for pair, m in entries.items() if m is not None}
    assert len(entries) == 49 and len(hits) == 42
    for pair, m in hits.items():
        a, b = (int(t) for t in pair.split(","))
        assert (m[0], m[30]) == (a, b)
        _assert_homomorphism(h, g, m)


def test_homs_box_c11_p16_into_c11_first_hit(capsys):
    report = run_json(capsys, "homs", "box(C:11,P:16)", "C:11", "--limit", "1")
    assert report["result"]["count"] == 1
    _assert_homomorphism(build_family("box(C:11,P:16)"), build_family("C:11"),
                         report["result"]["homomorphisms"][0])


def test_gadget_check_o4_into_c7_has_no_witness(capsys):
    report = run_json(capsys, "gadget-check", "O:4", "0", "1", "C:7")
    entries = report["result"]["property_i"]["entries"]
    assert len(entries) == 49 and all(m is None for m in entries.values())
    assert not report["result"]["property_i"]["complete"]
    # every miss is a true miss: O:4 has no homomorphism to C:7 at all
    assert not hom_exists_forward_checking(build_family("O:4"), build_family("C:7"))


def test_gadget_check_and_build(capsys):
    report = run_json(capsys, "gadget-check", "cmpl(C:6)", "0", "1", "K:3")
    assert report["result"]["property_i"]["complete"]
    assert report["result"]["walk_obstruction"] is None
    report = run_json(capsys, "gadget-build", "complement-cycle", "4")
    assert report["result"]["candidate"]["status"] == "proven_oracular"
    assert report["result"]["property_i"]["complete"]
    assert len(report["result"]["property_i"]["entries"]) == 16


def test_splice_subcommand(capsys):
    report = run_json(capsys, "splice", "K:3", "cmpl(C:6)", "0", "1", "K:3",
                      "--pairs", "0,1")
    assert report["result"]["graph"]["n"] == 7
    assert report["result"]["graph"]["m"] == 12


def test_disprove_prism_subcommand(capsys):
    report = run_json(capsys, "disprove-prism", "2", "1")
    assert report["result"]["report"]["all_refuted"]
    code, out, err = run_cli(capsys, "disprove-prism", "1", "2")
    assert code == 1


def test_qcore_subcommand(capsys):
    report = run_json(capsys, "qcore", "C:7", "--assume-no-quantum-symmetry")
    assert report["result"]["certified"] and report["result"]["re_verified"]
    assert report["result"]["classical_only"]["conclusion"].startswith("only classical")


def test_bipartite_decide_subcommand(capsys):
    report = run_json(capsys, "bipartite-decide", "C:5", "K:2")
    assert report["result"]["morphisms_exist"] is False
    report = run_json(capsys, "bipartite-decide", "C:6", "K:2")
    assert report["result"]["morphisms_exist"] is True
    code, out, err = run_cli(capsys, "bipartite-decide", "C:6", "C:5")
    assert code == 1


def test_product_transfer_subcommand(capsys):
    report = run_json(capsys, "product-transfer", "cmpl(C:6)", "0", "1", "K:3", "K:3",
                      "--status1", "proven_oracular", "--status2", "proven_oracular")
    assert report["result"]["candidate"]["status"] == "proven_oracular"
    assert report["result"]["property_i"]["complete"]


def test_qcore_builds_certificate_once(monkeypatch, capsys):
    calls = []
    build = qgadget.qcore.quantum_core_certificate

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(qgadget.qcore, "quantum_core_certificate", counted)
    monkeypatch.setattr(qgadget.cli, "quantum_core_certificate", counted, raising=False)
    report = run_json(capsys, "qcore", "C:7")
    assert report["result"]["certified"] and report["result"]["re_verified"]
    # the certificate is emitted once, at the top of the result
    assert "certificate" not in report["result"]["classical_only"]
    cert = report["result"]["certificate"]
    assert cert is not None
    verify_quantum_core_certificate(build_family("C:7"), QuantumCoreCertificate(
        cert["graph"],
        {tuple(map(int, k.split(","))): v for k, v in cert["column_lengths"].items()},
        {tuple(map(int, k.split(","))): v for k, v in cert["cross_lengths"].items()}))
    assert len(calls) == 1


def _malformed_rep_docs():
    good = pair_swap_rep(4).to_json()
    big = graph_from_edges(1100, []).to_json()

    def edit(fn):
        doc = json.loads(json.dumps(good))
        fn(doc)
        return doc

    return {
        "no-domain": edit(lambda d: d.pop("domain")),
        "no-mats": edit(lambda d: d.pop("mats")),
        "mats-list": edit(lambda d: d.update(mats=[])),
        "entry-not-pairs": edit(lambda d: d["mats"].update({"0,0": [[1, 0], [0, 1]]})),
        "ragged-matrix": edit(lambda d: d["mats"].update({"0,0": [[[1, 0]], [[0, 0], [1, 0]]]})),
        "wrong-shape": edit(lambda d: d["mats"].update({"0,0": [[[1, 0]]]})),
        # a numeric string would pass a plain float conversion
        "string-element": edit(lambda d: d["mats"]["0,0"][0][0].__setitem__(0, "1.0")),
        "null-element": edit(lambda d: d["mats"]["0,0"][0][0].__setitem__(1, None)),
        "bad-key": edit(lambda d: d["mats"].update({"0": d["mats"]["0,0"]})),
        "edge-not-pair": edit(lambda d: d["domain"].update(edges=[[0]])),
        "n-missing": edit(lambda d: d["codomain"].pop("n")),
        "dim-zero": edit(lambda d: d.update(dim=0)),
        # 1100 * 1100 entries of dimension 2: a valid document, but above the stack bound
        "stack-too-large": edit(lambda d: d.update(domain=big, codomain=big, mats={})),
        "not-an-object": [1, 2, 3],
    }


@pytest.mark.parametrize("name", sorted(_malformed_rep_docs()))
def test_rep_verify_malformed_document_exit_1(tmp_path, capsys, name):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_malformed_rep_docs()[name]))
    code, out, err = run_cli(capsys, "rep-verify", str(path), "--json")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("drop", ["instance", "dim", "vertex_pvms", "dist"])
def test_defect_malformed_strategy_exit_1(tmp_path, capsys, drop):
    h, g = build_family("C:6"), build_family("K:3")
    doc = classical_strategy(h, g, enumerate_homomorphisms(h, g, limit=1)[0]).to_json()
    doc.pop(drop)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "defect", str(path), "--json")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err


MALFORMED_PAIR_DISTS = {
    "list": [["0,1|1,2", "1"]],
    "list-weight": {"0,1|1,2": [1]},
    "no-bar": {"0,1": "1"},
    "zero-denominator": {"0,1|1,2": "1/0"},
}


def _c_c_strategy(tmp_path):
    h, g = build_family("C:6"), build_family("K:3")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(classical_strategy(h, g, hom, with_edge_pvms=True).to_json()))
    return path


@pytest.mark.parametrize("name", sorted(MALFORMED_PAIR_DISTS))
def test_defect_malformed_pair_dist_exit_1(tmp_path, capsys, name):
    pd_path = tmp_path / "pairs.json"
    pd_path.write_text(json.dumps(MALFORMED_PAIR_DISTS[name]))
    code, out, err = run_cli(capsys, "defect", str(_c_c_strategy(tmp_path)), "--model", "c-c",
                             "--pair-dist", str(pd_path), "--json")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    assert out == ""


def _run_fresh(*argv):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "qgadget.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_malformed_rep_document_in_a_fresh_process(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_malformed_rep_docs()["no-domain"]))
    proc = _run_fresh("rep-verify", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", sorted(MALFORMED_PAIR_DISTS))
def test_malformed_pair_dist_in_a_fresh_process(tmp_path, name):
    pd_path = tmp_path / "pairs.json"
    pd_path.write_text(json.dumps(MALFORMED_PAIR_DISTS[name]))
    proc = _run_fresh("defect", str(_c_c_strategy(tmp_path)), "--model", "c-c",
                      "--pair-dist", str(pd_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def _nan_strategy(tmp_path):
    h = build_family("K:2")
    doc = classical_strategy(h, h, [0, 1]).to_json()
    doc["vertex_pvms"]["0"][0] = [[[float("nan"), 0.0]]]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    return path


def test_defect_nan_strategy_exit_1(tmp_path, capsys):
    code, out, err = run_cli(capsys, "defect", str(_nan_strategy(tmp_path)), "--model", "a",
                             "--json")
    assert code == 1 and err.startswith("error:") and "not hermitian" in err
    assert out == ""


def test_defect_nan_strategy_in_a_fresh_process(tmp_path):
    proc = _run_fresh("defect", str(_nan_strategy(tmp_path)), "--model", "a", "--json")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("x, y", [("99", "0"), ("-1", "0")])
def test_defect_commutator_vertex_out_of_range_in_a_fresh_process(tmp_path, x, y):
    proc = _run_fresh("defect", str(_c_c_strategy(tmp_path)), "--model", "commutator",
                      "--x", x, "--y", y)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert "not an instance vertex" in proc.stderr


@pytest.mark.parametrize("argv", [["qcore", "C:7"], ["qcore", "O:3"],
                                  ["qcore", "C:6"], ["qcore", "P:3"],
                                  ["gadget-check", "cmpl(C:8)", "0", "1", "K:4"],
                                  ["gadget-check", "C:9", "0", "4", "C:9"]])
def test_huge_lmax_costs_what_the_auto_lmax_costs(capsys, argv):
    # neither the walk tables nor the length searches may scale with lmax
    proc = _run_fresh(*argv, "--lmax", str(10**12), "--json")
    assert proc.returncode == 0, proc.stderr
    huge = json.loads(proc.stdout)
    auto = run_json(capsys, *argv)
    for report in (huge, auto):
        del report["elapsed_seconds"], report["inputs"]["lmax"]
    assert huge == auto


def test_rep_verify_and_compose(tmp_path, capsys):
    rep = pair_swap_rep(4)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep.to_json()))
    report = run_json(capsys, "rep-verify", str(path))
    assert report["result"]["report"]["passed"]
    report = run_json(capsys, "rep-verify", str(path), "--oracular")
    assert not report["result"]["report"]["passed"]

    out_path = tmp_path / "composed.json"
    report = run_json(capsys, "rep-compose", str(path), str(path), "-o", str(out_path))
    assert report["result"]["report"]["passed"]
    assert report["result"]["dim"] == 4
    assert out_path.exists()


def test_rep_compose_rejects_broken_rep_exit_2(tmp_path, capsys):
    rep = pair_swap_rep(4)
    payload = rep.to_json()
    del payload["mats"]["0,0"]  # breaks the row sum
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "rep-compose", str(path), str(path))
    assert code == 2 and "verification failure" in err


@pytest.mark.parametrize("argv", [["schmidt", "C:10"], ["analyze", "cmpl(C:10)"]])
def test_rejected_schmidt_pair_exit_2(monkeypatch, capsys, argv):
    # a scan that proposes a non-WAC pair fails its own re-check: that is a
    # verification failure, not a usage error
    monkeypatch.setattr(qgadget.endo, "_wac_masks", lambda *args: True)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 2 and "verification failure" in err
    assert "not WAC" in err


def test_defect_subcommand(tmp_path, capsys):
    h, g = build_family("C:6"), build_family("K:3")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    s = classical_strategy(h, g, hom, with_edge_pvms=True)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(s.to_json()))
    report = run_json(capsys, "defect", str(path), "--model", "a")
    assert report["result"]["defect"] == 0.0
    report = run_json(capsys, "defect", str(path), "--model", "c-v")
    assert report["result"]["defect"] == 0.0
    report = run_json(capsys, "defect", str(path), "--model", "commutator",
                      "--x", "0", "--y", "1")
    assert report["result"]["defect"] == 0.0
    pd_path = tmp_path / "pairs.json"
    pd_path.write_text(json.dumps({"0,1|1,2": "1/2", "1,2|0,1": "1/2"}))
    report = run_json(capsys, "defect", str(path), "--model", "c-c",
                      "--pair-dist", str(pd_path))
    assert report["result"]["defect"] == 0.0


def test_graph_file_argument(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("4 5\n0 1\n1 2\n2 3\n3 0\n1 3\n")
    report = run_json(capsys, "analyze", f"@{path}")
    assert report["result"]["verdict"]["kind"] == "no_gadget_at_all"


def test_reports_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "analyze", "diamond", "--json")
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_seconds")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_json_round_trips(capsys):
    code, out, err = run_cli(capsys, "analyze", "K:4", "--json")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def _jsonable_reference(obj):
    """The report encoder before plain ints in lists skipped the recursion."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return "infinity" if math.isinf(obj) else obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_reference(v) for v in obj]
    if hasattr(obj, "to_json"):
        return _jsonable_reference(obj.to_json())
    raise TypeError(f"cannot serialise {type(obj)} into a report")


class _ToJson:
    def __init__(self, payload):
        self.payload = payload

    def to_json(self):
        return self.payload


_REPORT_LEAVES = (st.none() | st.booleans() | st.integers() | st.text(max_size=3)
                  | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])
                  | st.fractions())
_REPORT_PAYLOADS = st.recursive(
    _REPORT_LEAVES,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=3)
                  | kids.map(_ToJson)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_REPORT_PAYLOADS)
def test_jsonable_matches_the_recursive_reference(payload):
    # the emitted bytes, fast path or the non-finite fallback, against the
    # recursive encoder; json.dumps tells true from 1 and 1.0 from 1
    args = argparse.Namespace(command="analyze", json=True, _t0=time.monotonic())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        qgadget.cli.emit_report(args, {"payload": payload}, {"value": payload})
    report = {"command": "analyze", "inputs": {"payload": payload}, "result": {"value": payload},
              "tool_version": qgadget.__version__,
              "elapsed_seconds": json.loads(out.getvalue())["elapsed_seconds"]}
    assert out.getvalue() == json.dumps(_jsonable_reference(report), sort_keys=True) + "\n"


def _help_text(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_cached_parser_prints_what_a_fresh_parser_prints(capsys):
    commands = sorted(name[4:].replace("_", "-") for name in vars(qgadget.cli)
                      if name.startswith("cmd_"))
    assert len(commands) == 14
    for argv in [["--help"]] + [[c, "--help"] for c in commands] + [["analyze"], ["nope"]]:
        for _ in range(2):  # the second call reuses the parser the first one built
            cached = _help_text(capsys, main, argv)
            assert cached == _help_text(capsys, qgadget.cli.build_parser().parse_args, argv)
        assert cached[0] == (0 if argv[-1] == "--help" else 1)
        assert (cached[1] if cached[0] == 0 else cached[2]).startswith("usage: qgadget")


def _normal(text):
    return re.sub(r'"elapsed_seconds": [-+0-9.eE]+', '"elapsed_seconds": 0', text)


def test_repeated_calls_in_one_process_match_fresh_processes(capsys):
    # an appended --pin list must not leak from one call into the next
    pinned = ["homs", "C:6", "K:3", "--pin", "0=1", "--json"]
    plain = ["homs", "C:6", "K:3", "--json"]
    seen = []
    for argv in (pinned, pinned, plain):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        seen.append(_normal(out))
    fresh = [_normal(_run_fresh(*argv).stdout) for argv in (pinned, plain)]
    assert seen == [fresh[0], fresh[0], fresh[1]]
    assert json.loads(seen[0])["result"]["count"] < json.loads(seen[2])["result"]["count"]


def test_handler_rebound_after_the_first_call_is_the_one_run(monkeypatch, capsys):
    run_json(capsys, "analyze", "diamond")
    calls = []
    monkeypatch.setattr(qgadget.cli, "cmd_analyze", lambda args: calls.append(args.graph))
    code, out, err = run_cli(capsys, "analyze", "C:5")
    assert code == 0 and out == "" and calls == ["C:5"]


def _inf_rep_doc(tmp_path):
    doc = json.dumps(pair_swap_rep(4).to_json())
    path = tmp_path / "inf.json"
    # 1e400 overflows to an infinite float when the document is read
    path.write_text(doc.replace('"0,0": [[[1.0,', '"0,0": [[[1e400,', 1))
    assert "1e400" in path.read_text()
    return path


INF_REP_RESULT = (
    '"result": {"dim": 2, "entries": 8, "report": {"max_residual": NaN, "oracular": false, '
    '"passed": false, "violations": [{"relation": "hermitian", "residual": NaN, "where": [0, 0]}, '
    '{"relation": "idempotent", "residual": NaN, "where": [0, 0]}, '
    '{"relation": "row_sum_identity", "residual": "infinity", "where": [0]}, '
    '{"relation": "adjacency_zero_product", "residual": NaN, "where": [0, 0, 1, 0]}, '
    '{"relation": "adjacency_zero_product", "residual": NaN, "where": [1, 0, 0, 0]}]}}')

ANALYZE_P4 = (
    '{"command": "analyze", "elapsed_seconds": 0, '
    '"inputs": {"graph": "P:4", "i_know": false, "max_vertices": 12}, '
    '"result": {"four_cycle": null, "girths": {"diameter": 4, "girth": "infinity", '
    '"odd_girth": "infinity", "odd_walk_girth": "infinity"}, "graph": {"edges": '
    '[[0, 1], [1, 2], [2, 3], [3, 4]], "label": "P:4", "m": 4, "n": 5}, "oracularisable": true, '
    '"verdict": {"certificate": {"f": [0, 1, 0, 1, 0], "g": [2, 1, 2, 3, 4], "mode": '
    '"disconnected", "witness_vertices": [2, 0]}, "kind": "no_gadget_at_all", "known_gadget": '
    'null, "notes": ["disconnected-support pair excludes oracular and non-oracular '
    'commutativity gadgets"]}}, "tool_version": "0.1.0"}\n')


def test_non_finite_reports_keep_their_bytes(tmp_path, capsys):
    path = _inf_rep_doc(tmp_path)
    want = ('{"command": "rep-verify", "elapsed_seconds": 0, '
            '"inputs": {"oracular": false, "path": '
            + json.dumps(str(path)) + '}, ' + INF_REP_RESULT + ', "tool_version": "0.1.0"}\n')
    code, out, err = run_cli(capsys, "rep-verify", str(path), "--json")
    assert code == 0 and _normal(out) == want
    code, out, err = run_cli(capsys, "analyze", "P:4", "--json")
    assert code == 0 and _normal(out) == ANALYZE_P4


def test_infinite_entry_warns_nothing_in_a_fresh_process(tmp_path):
    proc = _run_fresh("rep-verify", str(_inf_rep_doc(tmp_path)), "--json")
    assert proc.returncode == 0 and proc.stderr == ""
    assert INF_REP_RESULT in proc.stdout
