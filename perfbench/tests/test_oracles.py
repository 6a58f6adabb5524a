"""Each check accepts the program's real output and rejects a corrupted one."""

import contextlib
import io
import json

import numpy as np
import pytest

import oracles
import ownref
import qgadget
import workloads
from workloads import Op


@pytest.fixture(scope="module")
def checker():
    return oracles.Checker(qgadget)


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qgadget.cli.main(argv) == 0
    return out.getvalue()


def corrupt(text, edit):
    doc = json.loads(text)
    edit(doc["result"] if "result" in doc else doc)
    return json.dumps(doc)


def assert_checked(checker, op, text, edit):
    assert checker.check(op, text) is None
    assert checker.check(op, corrupt(text, edit)) is not None


def test_schmidt_certificate_with_one_map_entry_flipped(checker):
    op = Op("s", "schmidt", ["schmidt", "diamond", "--json"],
            data={"graph": "diamond", "oracular": False})

    def flip(res):
        f = res["certificate"]["f"]
        f[0] = (f[0] + 1) % len(f)
    assert_checked(checker, op, cli(op.argv), flip)


def test_schmidt_none_found_is_rechecked(checker):
    op = Op("s", "schmidt", ["schmidt", "C:10", "--oracular", "--json"],
            data={"graph": "C:10", "oracular": True})
    assert_checked(checker, op, cli(op.argv),
                   lambda res: res.update(found=False, certificate=None))


@pytest.mark.parametrize("edit", [
    lambda res: res["girths"].update(girth=5),
    lambda res: res["verdict"].update(kind="unknown", certificate=None),
    lambda res: res.update(oracularisable=not res["oracularisable"]),
])
def test_analyze(checker, edit):
    op = Op("a", "analyze", ["analyze", "dprime", "--json"], data={"graph": "dprime"})
    assert_checked(checker, op, cli(op.argv), edit)


def test_analyze_known_gadget(checker):
    op = Op("a", "analyze", ["analyze", "K:4", "--json"], data={"graph": "K:4"})
    assert_checked(checker, op, cli(op.argv),
                   lambda res: res["verdict"].update(known_gadget=None))


def test_endos_and_homs(checker):
    op = Op("e", "endos", ["endos", "C:9", "--json"], data={"graph": "C:9"})
    assert_checked(checker, op, cli(op.argv),
                   lambda res: res["endomorphisms"][3].reverse())
    argv = ["homs", "C:9", "K:3", "--pin", "0=1", "--pin", "4=2", "--limit", "0", "--json"]
    op = Op("h", "homs", argv, data={"source": "C:9", "target": "K:3",
                                     "pins": {0: 1, 4: 2}, "limit": 0})
    assert_checked(checker, op, cli(argv), lambda res: res["homomorphisms"].pop())


def test_quantum_core_length_with_a_closed_walk(checker):
    op = Op("q", "qcore", ["qcore", "C:9", "--json"], data={"graph": "C:9"})
    assert_checked(checker, op, cli(op.argv),
                   lambda res: res["certificate"]["column_lengths"].update({"0,1": 9}))
    assert_checked(checker, op, cli(op.argv),
                   lambda res: res["certificate"]["cross_lengths"].pop("0,2"))


def test_gadget_check_witness_and_obstruction(checker):
    argv = ["gadget-check", "cmpl(C:8)", "0", "1", "K:4", "--json"]
    op = Op("g", "gadget_check", argv,
            data={"gadget": "cmpl(C:8)", "x": 0, "y": 1, "target": "K:4"})
    text = cli(argv)

    def flip(res):
        w = res["property_i"]["entries"]["0,1"]
        w[2] = w[0]
    assert_checked(checker, op, text, flip)
    assert checker.check(op, corrupt(text, lambda res: res.update(
        walk_obstruction={"length": 1, "pair": [0, 0]}))) is not None


def test_walk_query_rejects_the_uint8_wrap_on_k258(checker):
    g = qgadget.build_family("K:258")
    op = Op("w", "walk_query", lib="walk_query",
            data={"graph": g, "adj": ownref.family_adj("K:258"), "lmax": 3,
                  "queries": [(2, 0, 1), (3, 5, 6)], "pairs": [(0, 1)]})
    right = json.dumps({"has_walk": [True, True], "distance": [1]})
    assert checker.check(op, right) is None
    t = qgadget.walk_table(g, 3)
    program = json.dumps({"has_walk": [t.has_walk(2, 0, 1), t.has_walk(3, 5, 6)],
                          "distance": [qgadget.distance(t, 0, 1)]})
    assert checker.check(op, program) is not None


def test_girths(checker):
    op = Op("g", "girths", lib="girths", data={"adj": ownref.family_adj("petersen")})
    right = {"girth": 5, "odd_girth": 5, "odd_walk_girth": 5, "diameter": 2}
    assert_checked(checker, op, json.dumps(right), lambda res: res.update(odd_walk_girth=7))


def test_disprove_prism(checker):
    op = Op("d", "disprove", ["disprove-prism", "2", "4", "--json"], data={"n": 2, "k": 4})
    text = cli(op.argv)
    assert_checked(checker, op, text, lambda res: res["report"].update(total_pairs=299))
    assert checker.check(op, corrupt(text, lambda res: res["report"].update(
        all_refuted=False))) is not None


def test_rep_verify_and_compose(checker, tmp_path):
    k4 = ownref.family_adj("K:4")
    path = workloads.write_json(str(tmp_path / "swap.json"),
                                workloads.rep_doc(k4, k4, workloads.pair_swap_mats(4)))
    for oracular in (False, True):
        argv = ["rep-verify", path, "--json"] + (["--oracular"] if oracular else [])
        op = Op("v", "rep_verify", argv, data={"path": path, "oracular": oracular})
        text = cli(argv)
        assert json.loads(text)["result"]["report"]["passed"] is not oracular
        assert_checked(checker, op, text,
                       lambda res: res["report"].update(passed=not res["report"]["passed"]))
    op = Op("c", "rep_compose", ["rep-compose", path, path, "--json"],
            data={"first": path, "second": path})

    def perturb(res):
        mats = res["representation"]["mats"]
        mats[sorted(mats)[0]][0][0][0] += 1e-6
    assert_checked(checker, op, cli(op.argv), perturb)


def test_defect_closed_form(checker, tmp_path):
    h, g = ownref.family_adj("C:5"), ownref.family_adj("K:3")
    sigma = [0, 1, 0, 1, 0]  # the edge 4-0 is mapped onto a non-edge
    want = ownref.deterministic_assignment_defect(h, g, sigma)
    assert want == pytest.approx(2 / 10)
    path = workloads.write_json(str(tmp_path / "s.json"), workloads.strategy_doc(
        h, g, workloads.deterministic_pvms(3, sigma)))
    op = Op("d", "defect", ["defect", path, "--model", "a", "--json"],
            data={"expected": float(want), "path": path})
    assert_checked(checker, op, cli(op.argv), lambda res: res.update(defect=0.0))


def test_hadamard_commutator_defect_is_one():
    pvms = np.array([[workloads.P0, workloads.P1], [workloads.Q0, workloads.Q1]])
    assert ownref.commutator_defect(pvms[0], pvms[1]) == pytest.approx(1.0)


def test_splice_and_bipartite(checker, tmp_path):
    h = ownref.family_adj("P:2")
    path = workloads.write_edge_list(str(tmp_path / "h.txt"), h)
    argv = ["splice", path, "cmpl(C:6)", "0", "1", "K:3", "--pairs", "0,2", "--json"]
    op = Op("s", "splice", argv, data={"instance": h, "gadget": "cmpl(C:6)", "x": 0, "y": 1,
                                       "pairs": [(0, 2)]})
    assert_checked(checker, op, cli(argv), lambda res: res["graph"]["edges"].pop())
    argv = ["bipartite-decide", path, "C:4", "--json"]
    op = Op("b", "bipartite", argv, data={"instance": h, "target": ownref.family_adj("C:4")})
    assert_checked(checker, op, cli(argv), lambda res: res.update(morphisms_exist=False))
