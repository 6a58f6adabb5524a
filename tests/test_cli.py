"""CLI subcommands, exit codes, JSON report shape, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import qgadget.cli
import qgadget.endo
import qgadget.gadget
import qgadget.qcore
from qgadget import (QuantumCoreCertificate, QuantumRep, build_family, classical_rep,
                     classical_strategy, enumerate_homomorphisms, graph_from_edges,
                     pair_dist_from_json, pair_swap_rep, rep_from_json, strategy_from_json,
                     verify_quantum_core_certificate)
from qgadget.cli import main
from qgadget.graphs import MAX_NESTING
from conftest import hom_exists_forward_checking, run_fresh


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


def test_homs_refuses_a_negative_limit(capsys):
    code, out, err = run_cli(capsys, "homs", "K:3", "K:3", "--limit", "-2", "--json")
    assert code == 1 and out == ""
    assert err == "error: --limit must be >= 0, got -2\n"


def test_homs_full_listing_is_bounded(monkeypatch, capsys):
    # cmpl(K:7) -> K:8 has 8^7 = 2,097,152 maps; the listing stops once more
    # than 2^20 have arrived, before any of them is turned into a list
    code, out, err = run_cli(capsys, "homs", "cmpl(K:7)", "K:8", "--json")
    assert code == 1 and out == ""
    assert err == ("error: more than 1048576 homomorphisms (the bound of a full listing); "
                   "pass --limit N for the first N maps, or --i-know to list them all\n")
    assert run_json(capsys, "homs", "cmpl(K:7)", "K:8", "--limit", "3")["result"]["count"] == 3
    # --i-know lifts the bound and is echoed; below the bound it is left out
    monkeypatch.setattr(qgadget.cli, "HOMS_MAX_MAPS", 5)
    code, out, err = run_cli(capsys, "homs", "K:3", "K:3")
    assert code == 1 and "more than 5 homomorphisms" in err
    report = run_json(capsys, "homs", "K:3", "K:3", "--i-know")
    assert report["result"]["count"] == 6 and report["inputs"]["i_know"] is True
    monkeypatch.setattr(qgadget.cli, "HOMS_MAX_MAPS", 6)
    assert "i_know" not in run_json(capsys, "homs", "K:3", "K:3")["inputs"]


@pytest.mark.parametrize("spec", ["K:100000000", "P:100000000", "C:30000000", "O:40",
                                  "box(K:4096,K:4096)", "tensor(K:2000,K:2000)", "KG:100,50",
                                  "@header"])
def test_oversized_graphs_exit_1_before_allocating(tmp_path, capsys, spec):
    # each of these used to allocate (or list) far more than it could hold
    # before the graph checked its vertex count
    if spec == "@header":
        path = tmp_path / "big.txt"
        path.write_text("100000000 0\n")
        spec = f"@{path}"
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, "analyze", spec)
    assert time.monotonic() - t0 < 5
    assert code == 1 and out == ""
    assert "outside supported range 0..4096" in err


@pytest.mark.parametrize("argv, err", [
    (["analyze", "K:1_0"], "error: malformed K parameter '1_0'\n"),
    (["analyze", "C:\u0665"], "error: malformed C parameter '\u0665'\n"),
    (["homs", "K:3", "K:3", "--pin", "0"],
     "error: malformed --pin item '0', expected two integers joined by '='\n"),
    (["homs", "K:3", "K:3", "--pin", "0=+1"],
     "error: malformed --pin item '0=+1', expected two integers joined by '='\n"),
    (["homs", "K:3", "K:3", "--pin", "\u0660=1"],
     "error: malformed --pin item '\u0660=1', expected two integers joined by '='\n"),
    (["splice", "K:3", "cmpl(C:6)", "0", "1", "K:3", "--pairs", "0,1_0"],
     "error: malformed --pairs item '0,1_0', expected two integers joined by ','\n")])
def test_integers_must_be_ascii_digits_exit_1(capsys, argv, err):
    # int() took "1_0" as 10, "+1" as 1 and "\u0665" as 5
    code, out, got = run_cli(capsys, *argv, "--json")
    assert code == 1 and out == ""
    assert got == err


def test_integers_must_be_ascii_digits_at_every_integer(tmp_path, capsys):
    # an edge-list file, and the last integer of a nested descriptor
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 1_0\n")
    code, out, err = run_cli(capsys, "analyze", f"@{path}")
    assert code == 1 and err == "error: malformed edge line '0 1_0'\n"
    code, out, err = run_cli(capsys, "homs", "box(C:5,P:+1)", "C:5", "--limit", "1")
    assert code == 1 and err == "error: malformed P parameter '+1'\n"
    # surrounding whitespace is still read
    report = run_json(capsys, "homs", "K: 3", "K:3", "--pin", " 0 = 1 ", "--limit", "1")
    assert report["result"]["homomorphisms"] == [[1, 0, 2]]


def test_integers_must_be_ascii_digits_in_a_fresh_process():
    proc = run_fresh("analyze", "K:1_0")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


# one bad value for each integer argument; the rest of each line is a valid call
INTEGER_ARGUMENTS = [
    ["analyze", "C:5", "--max-vertices", "1_2"],
    ["endos", "C:5", "--limit", "1_0"],
    ["homs", "C:5", "K:3", "--limit", "+1"],
    ["gadget-check", "cmpl(C:6)", "\u0660", "1", "K:3"],
    ["gadget-check", "cmpl(C:6)", "0", "+1", "K:3"],
    ["gadget-check", "cmpl(C:6)", "0", "1", "K:3", "--lmax", "1_0"],
    ["gadget-build", "complement-cycle", "+4"],
    ["splice", "K:2", "cmpl(C:6)", "+0", "1", "K:3"],
    ["splice", "K:2", "cmpl(C:6)", "0", "0_1", "K:3"],
    ["disprove-prism", "\u0662", "4"],
    ["disprove-prism", "2", "+4"],
    ["qcore", "C:5", "--lmax", "1_0"],
    ["defect", "STRATEGY", "--model", "commutator", "--x", "+0", "--y", "1"],
    ["defect", "STRATEGY", "--model", "commutator", "--x", "0", "--y", "\u0661"],
    ["product-transfer", "cmpl(C:8)", "+0", "1", "K:4", "K:4"],
    ["product-transfer", "cmpl(C:8)", "0", "1_0", "K:4", "K:4"],
]


@pytest.mark.parametrize("argv", INTEGER_ARGUMENTS, ids=" ".join)
def test_integer_arguments_must_be_ascii_digits_exit_1(tmp_path, capsys, argv):
    # type=int took "1_0" as 10, "+1" as 1 and "\u0662" as 2
    argv = [str(_c_c_strategy(tmp_path)) if a == "STRATEGY" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == ""
    assert out.err.startswith("usage: qgadget") and "Traceback" not in out.err
    assert "error: argument" in out.err and "invalid int value" in out.err


def test_integer_arguments_must_be_ascii_digits_in_a_fresh_process():
    proc = run_fresh("endos", "C:5", "--limit", "1_0", "--json")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("usage: qgadget") and "Traceback" not in proc.stderr
    assert proc.stderr.endswith("error: argument --limit: invalid int value: '1_0'\n")


@pytest.mark.parametrize("limit", ["0", "2"])
@pytest.mark.parametrize("fault, match", [("edge", "does not preserve edge (0,1)"),
                                          ("pin", "misses its pins (1,)")])
def test_corrupted_homs_map_exit_2(monkeypatch, capsys, limit, fault, match):
    # both searches are patched to yield one bad map of C:6 -> K:3 pinned at
    # 0 -> 1: vertex 1 joins vertex 0's image, or vertex 0 leaves its pin
    first, blocks = qgadget.endo._first_homomorphisms, qgadget.endo._homomorphism_blocks

    def corrupt(row):
        if fault == "edge":
            row[1] = row[0]
        else:
            row[0] = (row[0] + 1) % 3

    def corrupted_first(h, g, domains):
        for i, m in enumerate(first(h, g, domains)):
            m = list(m)
            if i == 1:
                corrupt(m)
            yield tuple(m)

    def corrupted_blocks(h, g, pins):
        for i, block in enumerate(blocks(h, g, pins)):
            block = block.copy()
            if i == 0:
                corrupt(block[1])
            yield block

    monkeypatch.setattr(qgadget.endo, "_first_homomorphisms", corrupted_first)
    monkeypatch.setattr(qgadget.endo, "_homomorphism_blocks", corrupted_blocks)
    code, out, err = run_cli(capsys, "homs", "C:6", "K:3", "--pin", "0=1", "--limit", limit,
                             "--json")
    assert code == 2 and out == ""
    assert err.startswith("verification failure: enumerated map [") and match in err


@pytest.mark.parametrize("argv, searches", [
    (["product-transfer", "cmpl(C:8)", "0", "1", "K:4", "K:4"], 2 * 16),
    (["gadget-build", "complement-cycle", "4"], 16),
    (["gadget-check", "cmpl(C:8)", "0", "1", "K:4"], 16)])
def test_each_property_i_table_is_searched_once(monkeypatch, capsys, argv, searches):
    # the constructors return the table they built and verified; the product
    # table is the factor tables combined, so 2 * 16 searches, not 16 + 16 + 256
    calls = []
    search = qgadget.gadget._first_homomorphisms

    def counted(h, g, domains):
        calls.append(g.n)
        return search(h, g, domains)

    monkeypatch.setattr(qgadget.gadget, "_first_homomorphisms", counted)
    report = run_json(capsys, *argv)
    assert report["result"]["property_i"]["complete"]
    assert len(calls) == searches


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
    search = qgadget.gadget._first_homomorphisms

    def corrupted(h, g, domains):
        for m in search(h, g, domains):
            yield (m[1],) + m[1:]

    monkeypatch.setattr(qgadget.gadget, "_first_homomorphisms", corrupted)
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
    def lengths(name):
        # the report's "a,b" keys, read back in row-major pair order
        keys = sorted(cert[name], key=lambda k: tuple(map(int, k.split(","))))
        return [cert[name][k] for k in keys]

    g = build_family("C:7")
    rebuilt = QuantumCoreCertificate(g, lengths("column_lengths"), lengths("cross_lengths"))
    assert json.loads("".join(qgadget.cli._json_pieces(rebuilt))) == cert
    verify_quantum_core_certificate(g, rebuilt)
    assert len(calls) == 1


def test_qcore_exits_2_when_its_certificate_fails_re_verification(monkeypatch, capsys):
    build = qgadget.qcore.quantum_core_certificate

    def one_length_off(*args):
        cert = build(*args)
        column = cert.column_lengths.copy()
        column[0] += 1  # pair (0,1) has no walk of length 2 on C:7
        return QuantumCoreCertificate(cert.graph, column, cert.cross_lengths)

    monkeypatch.setattr(qgadget.qcore, "quantum_core_certificate", one_length_off)
    code, out, err = run_cli(capsys, "qcore", "C:7", "--json")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err == ("verification failure: freshly built certificate failed re-verification: "
                   "column pair (0,1): no walk of length 2\n")


def _malformed_rep_docs():
    good = pair_swap_rep(4).to_json()
    k2 = build_family("K:2")
    one = classical_rep(k2, k2, [1, 0]).to_json()  # dimension 1
    big = graph_from_edges(1100, []).to_json()

    def edit(fn, base=good):
        doc = json.loads(json.dumps(base))
        fn(doc)
        return doc

    def rekey(new):
        return edit(lambda d: d["mats"].update({new: d["mats"].pop("0,0")}))

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
        # keys and dim were read by int(), which truncates 1.9 and reads "+0",
        # "0_0" and Arabic-Indic digits; an infinite tol passed every residual
        "key-plus": rekey("+0,0"),
        "key-underscore": rekey("0_0,0"),
        "key-arabic-digit": rekey(" \u0660,0"),
        # the last of two keys for one entry used to win silently
        "key-repeated": edit(lambda d: d["mats"].update({"00,0": d["mats"]["0,0"]})),
        "dim-float": edit(lambda d: d.update(dim=1.9), one),
        "dim-string": edit(lambda d: d.update(dim="1"), one),
        "tol-infinite": edit(lambda d: d.update(tol=math.inf)),
        "tol-nan": edit(lambda d: d.update(tol=math.nan)),
        "tol-negative": edit(lambda d: d.update(tol=-1)),
        # 1100 * 1100 entries of dimension 2: a valid document, but above the stack bound
        "stack-too-large": edit(lambda d: d.update(domain=big, codomain=big, mats={})),
        "not-an-object": [1, 2, 3],
    }


@pytest.mark.parametrize("name", sorted(_malformed_rep_docs()))
def test_rep_verify_malformed_document_exit_1(tmp_path, capsys, name):
    doc = _malformed_rep_docs()[name]
    with pytest.raises(ValueError):
        rep_from_json(doc)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
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


def _malformed_strategy_docs():
    h, g = build_family("C:6"), build_family("K:3")
    good = classical_strategy(h, g, enumerate_homomorphisms(h, g, limit=1)[0],
                              with_edge_pvms=True).to_json()

    def rekey(fams, fix):
        # the first key, "0" or "0,b", as int() read it too
        key = next(iter(fams))
        assert key.startswith("0")
        fams[fix(key)] = fams.pop(key)

    def repeat(fams):
        # the first key again, written "0..." as "00...", after the others
        key = next(iter(fams))
        fams["0" + key] = fams[key]

    edits = {"dim-float": lambda d: d.update(dim=1.9),
             "dim-string": lambda d: d.update(dim="1"),
             "tol-infinite": lambda d: d.update(tol=math.inf),
             "tol-nan": lambda d: d.update(tol=math.nan),
             "tol-negative": lambda d: d.update(tol=-1),
             "vertex_pvms-plus": lambda d: rekey(d["vertex_pvms"], lambda k: "+" + k)}
    for name, fix in (("plus", lambda k: "+" + k), ("underscore", lambda k: "0_" + k),
                      ("arabic-digit", lambda k: " \u0660" + k[1:])):
        edits[f"dist-{name}"] = lambda d, fix=fix: rekey(d["dist"], fix)
        edits[f"edge_pvms-{name}"] = lambda d, fix=fix: rekey(d["edge_pvms"], fix)
        edits[f"outcome-{name}"] = lambda d, fix=fix: rekey(d["edge_pvms"]["0,1"], fix)
    for field in ("vertex_pvms", "dist", "edge_pvms"):
        edits[f"{field}-repeated"] = lambda d, f=field: repeat(d[f])
    edits["outcome-repeated"] = lambda d: repeat(d["edge_pvms"]["0,1"])
    docs = {}
    for name, fn in edits.items():
        docs[name] = json.loads(json.dumps(good))
        fn(docs[name])
    return docs


@pytest.mark.parametrize("name", sorted(_malformed_strategy_docs()))
def test_defect_malformed_strategy_document_exit_1(tmp_path, capsys, name):
    doc = _malformed_strategy_docs()[name]
    field = name.split("-")[0]
    with pytest.raises(ValueError, match=field if field != "dim" else "integer"):
        strategy_from_json(doc)
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "defect", str(path), "--model", "c-v", "--json")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    assert out == ""


MALFORMED_PAIR_DISTS = {
    "list": [["0,1|1,2", "1"]],
    "list-weight": {"0,1|1,2": [1]},
    "no-bar": {"0,1": "1"},
    "zero-denominator": {"0,1|1,2": "1/0"},
    "plus-key": {"0,+1|1,0": "1"},
    "repeated-key": {"0,1|1,2": "1", "00,1|1,2": "0"},
}


def _c_c_strategy(tmp_path):
    h, g = build_family("C:6"), build_family("K:3")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    path = tmp_path / "strategy.json"
    path.write_text(json.dumps(classical_strategy(h, g, hom, with_edge_pvms=True).to_json()))
    return path


@pytest.mark.parametrize("name", sorted(MALFORMED_PAIR_DISTS))
def test_defect_malformed_pair_dist_exit_1(tmp_path, capsys, name):
    with pytest.raises(ValueError):
        pair_dist_from_json(MALFORMED_PAIR_DISTS[name])
    pd_path = tmp_path / "pairs.json"
    pd_path.write_text(json.dumps(MALFORMED_PAIR_DISTS[name]))
    code, out, err = run_cli(capsys, "defect", str(_c_c_strategy(tmp_path)), "--model", "c-c",
                             "--pair-dist", str(pd_path), "--json")
    assert code == 1 and err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["edge_pvms"].update({"0,2": d["edge_pvms"]["0,1"]}),
     "edge_pvms key 0,2 is not a directed edge of the instance"),
    (lambda d: d.update(dist={"0,1": "1/1"}) or d["edge_pvms"].pop("1,2"),
     "pair_dist edge (1,2) has weight but no PVM"),
], ids=["non-edge-key", "pair-edge-without-pvm"])
def test_defect_c_c_refuses_edge_families_no_stack_could_score(tmp_path, capsys, edit, message):
    # P:2 -> K:3 at dimension 1: a family keyed by a non-edge, or a pair
    # weight on an edge with no family, once read as a defect of 0.0
    h, g = build_family("P:2"), build_family("K:3")
    doc = classical_strategy(h, g, [0, 1, 2], with_edge_pvms=True).to_json()
    edit(doc)
    path, pd_path = tmp_path / "strategy.json", tmp_path / "pairs.json"
    path.write_text(json.dumps(doc))
    pd_path.write_text(json.dumps({"0,1|1,2": "1/1"}))
    code, out, err = run_cli(capsys, "defect", str(path), "--model", "c-c",
                             "--pair-dist", str(pd_path), "--json")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err == f"error: {message}\n"


def test_malformed_rep_document_in_a_fresh_process(tmp_path):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_malformed_rep_docs()["no-domain"]))
    proc = run_fresh("rep-verify", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("template", ["cmpl({})", "box({},K:1)", "tensor(K:1,{})"])
def test_deeply_nested_descriptor_in_a_fresh_process(template):
    # a thousand levels used to end in a RecursionError traceback
    spec = "K:2"
    for _ in range(1000):
        spec = template.format(spec)
    proc = run_fresh("analyze", spec)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: family descriptor nested deeper than {MAX_NESTING} levels\n"


@pytest.mark.parametrize("name", sorted(MALFORMED_PAIR_DISTS))
def test_malformed_pair_dist_in_a_fresh_process(tmp_path, name):
    pd_path = tmp_path / "pairs.json"
    pd_path.write_text(json.dumps(MALFORMED_PAIR_DISTS[name]))
    proc = run_fresh("defect", str(_c_c_strategy(tmp_path)), "--model", "c-c",
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
    proc = run_fresh("defect", str(_nan_strategy(tmp_path)), "--model", "a", "--json")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("x, y", [("99", "0"), ("-1", "0")])
def test_defect_commutator_vertex_out_of_range_in_a_fresh_process(tmp_path, x, y):
    proc = run_fresh("defect", str(_c_c_strategy(tmp_path)), "--model", "commutator",
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
    proc = run_fresh(*argv, "--lmax", str(10**12), "--json")
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


def test_rep_compose_above_the_stack_bound_exit_1(tmp_path, capsys):
    k1 = build_family("K:1")
    rep = QuantumRep(k1, k1, 64, np.eye(64, dtype=complex)[None, None], np.ones((1, 1), bool))
    path = tmp_path / "rep64.json"
    path.write_text(json.dumps(rep.to_json()))
    code, out, err = run_cli(capsys, "rep-compose", str(path), str(path), "--json")
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: 1 x 1 matrices of dimension 4096 need")


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
    # a search that proposes a non-WAC pair fails its own re-check: that is a
    # verification failure, not a usage error
    domains = qgadget.endo._partner_domains

    def disjoint_only(g, fm, sf, oracular):
        # the WAC domains without the WAC condition: only f's support is fixed
        if oracular:
            return domains(g, fm, sf, oracular)
        return tuple(1 << y if y in sf else (1 << g.n) - 1 for y in range(g.n))

    monkeypatch.setattr(qgadget.endo, "_partner_domains", disjoint_only)
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
    if isinstance(obj, np.ndarray):
        return obj.tolist()
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
# 2-D int8 and int16 arrays, empty ones and one-column ones among them, with
# values at both ends of their range
_INT_ARRAYS = st.sampled_from([np.int8, np.int16]).flatmap(
    lambda dtype: arrays(dtype, st.tuples(st.integers(0, 4), st.integers(0, 4))))
# integer arrays sit in reports only as dict values, under dicts and to_json
# objects, beside plain subtrees
_REPORT_TREES = st.recursive(
    _REPORT_PAYLOADS | _INT_ARRAYS,
    lambda kids: st.dictionaries(st.text(max_size=3), kids, max_size=3) | kids.map(_ToJson),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_REPORT_TREES)
def test_jsonable_matches_the_recursive_reference(payload):
    # the emitted bytes, fast path or the non-finite fallback, against the
    # recursive encoder, which writes an integer array as its tolist();
    # json.dumps tells true from 1 and 1.0 from 1
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
    """The report with elapsed_seconds written as 0, in JSON or text mode."""
    return re.sub(r'("?elapsed_seconds"?: )[-+0-9.eE]+', r"\g<1>0", text)


def test_repeated_calls_in_one_process_match_fresh_processes(capsys):
    # an appended --pin list must not leak from one call into the next
    pinned = ["homs", "C:6", "K:3", "--pin", "0=1", "--json"]
    plain = ["homs", "C:6", "K:3", "--json"]
    seen = []
    for argv in (pinned, pinned, plain):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        seen.append(_normal(out))
    fresh = [_normal(run_fresh(*argv).stdout) for argv in (pinned, plain)]
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


# sha256 of each `qcore <spec> --json` report, with elapsed_seconds written as 0
QCORE_REPORT_SHA256 = {
    "C:5": "72c22a6b8a719bcd58353561192409189d6e3835a00117475a057cbb6b1e0411",
    "C:51": "62c7e70fa0ea699f5b446a6c76f8b9744202a745a4c7e5108f2789e1207703b5",
    "O:3": "6667bda92b4c13252adce0ff196517c30a19700f12f2776f6ea8cff142e646db",
    "O:5": "18b6bdaccd2d9ec1a3cd274a387e4d6ec6375828ee7f8a5efae6279f7ff3f494",
    "KG:8,3": "01ce45dbfc8503422403a37c4389a450ce5aa0f75b3e0d3a1ace6758013ff16d",
    "box(C:9,P:10)": "dbd206137b539b5b6cdaccdfc5e555ea3aa2641eae777e764330e7a9db6c1990",
}


@pytest.mark.parametrize("spec", sorted(QCORE_REPORT_SHA256))
def test_qcore_reports_keep_their_bytes(capsys, spec):
    code, out, err = run_cli(capsys, "qcore", spec, "--json")
    assert code == 0, err
    assert hashlib.sha256(_normal(out).encode()).hexdigest() == QCORE_REPORT_SHA256[spec]


# sha256 of map listings in JSON and text mode, with elapsed_seconds written
# as 0; the array writer must keep the bytes json.dumps wrote
LISTING_REPORT_SHA256 = {
    ("endos", "P:11", "--json"):
        "8473124fc198d553a73779ee1a3ec7df052c605ef6741df20de630dcf3c14ec5",
    ("endos", "P:11"): "d141aa8b333b7214e898cb28c10b4a5fdb1294ccb3c6ab13ebc5750f1ff2c43b",
    ("endos", "C:12", "--json"):
        "3678125a70a59dee4775659af9a614730c68269c3c10064554c8b3e92fe57f1c",
    ("endos", "C:12"): "6bf69e89e709b40dd25c9d6b0fb4dcac5ad12c3d6fafca4598f33aecd1eb3d6e",
    ("endos", "cmpl(C:10)", "--json"):
        "37a3c91930a5676f21613f2759e0ea6473aa7f0e2e6018606a08006c5f5eeb34",
    ("endos", "cmpl(C:10)"): "fc8c91370c7885efaa66155fbb7fc32fc653fc57ca368a00d0d21417086501bc",
    ("endos", "K:6", "--limit", "5", "--json"):
        "1b2e12301d3bf27a274d11fadc6f49f3f5aa204d72362152ccac25d410dda806",
    ("endos", "K:6", "--limit", "5"):
        "cf74e34e070b2920e710b2d4a2fdb86c7b47608fccb67b97525c7eb7448ddc77",
    ("homs", "cmpl(C:8)", "K:4", "--json"):
        "baa916d532799479415e11fac8d1e76eb9a8436ef3511c235910439b4209c94a",
    ("homs", "cmpl(C:8)", "K:4"): "b34d24db8a931ad4cd461b147754f88bb3366cfdd8fd55b5ecf639182ab8e6ce",
    ("homs", "C:9", "K:3", "--pin", "0=1", "--limit", "3", "--json"):
        "e5fb3c66482243ac60dcf42a721ec9706a52c9f8959cc0a72b522fbce34be2b8",
    ("homs", "C:9", "K:3", "--pin", "0=1", "--limit", "3"):
        "b89d55dd24a0e674d1f68e70e5ffa92fb2f665a0eda4b222f16acd927388fb5d",
}


@pytest.mark.parametrize("argv", sorted(LISTING_REPORT_SHA256))
def test_listing_reports_keep_their_bytes(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(_normal(out).encode()).hexdigest() == LISTING_REPORT_SHA256[argv]


@pytest.mark.parametrize("argv", [["endos", "P:11", "--json"], ["endos", "P:11"],
                                  ["qcore", "C:5", "--json"]])
def test_closed_stdout_exits_141_and_prints_nothing(argv):
    # stdout is a pipe whose reader is gone, as in `qgadget endos P:11 --json
    # | head -c 10` once head exits; the report write used to print "error:
    # [Errno 32] Broken pipe" and exit 1, and a report that fit in stdout's
    # buffer failed at exit with an "Exception ignored" message instead
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_fresh(*argv, stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 141 and proc.stderr == ""


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
    proc = run_fresh("rep-verify", str(_inf_rep_doc(tmp_path)), "--json")
    assert proc.returncode == 0 and proc.stderr == ""
    assert INF_REP_RESULT in proc.stdout
