"""The document codec: representation, strategy and pair-distribution
documents round-trip to equal bytes, and their loaders, fed mutated
documents, return their object or raise ValueError and nothing else."""

import copy
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgadget import (QuantumRep, Strategy, assignment_defect, cc_defect, classical_strategy,
                     commutator_defect, cv_defect, graph_from_edges, pair_dist_from_json,
                     rep_from_json, strategy_from_json, verify_rep)
from qgadget.cli import _load_json, main
from conftest import run_fresh, set_edge_pvms

_FLOATS = st.sampled_from([0.0, -0.0, 1.0, 0.5]) | st.floats(width=64)


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return graph_from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True))
                            if pairs else [])


def _stacks(*shape):
    """Complex arrays of ``shape`` from [re, im] floats, infinities and NaN
    included; a product such as 1j * inf would turn an infinity into NaN."""
    size = 2 * math.prod(shape)
    return st.lists(_FLOATS, min_size=size, max_size=size).map(
        lambda xs: np.array(xs).reshape(*shape, 2).view(complex)[..., 0])


@st.composite
def _reps(draw):
    dom, cod, dim = draw(_graphs()), draw(_graphs()), draw(st.integers(1, 3))
    mats = draw(_stacks(dom.n, cod.n, dim, dim))
    present = draw(_stacks(dom.n, cod.n)).real > 0  # any mask
    zero = draw(_stacks(dom.n, cod.n)).real > 0     # listed entries that are zero
    mats[~present | zero] = 0.0
    return QuantumRep(dom, cod, dim, mats, present, draw(st.floats(0.0, 1.0)))


_VERTEX_PAIRS = st.tuples(st.integers(-1, 3), st.integers(-1, 3))


@st.composite
def _strategies(draw):
    """Edge families keyed by directed instance edges, each listing one to
    three directed target edges, zero matrices among them; the loader
    refuses any other key, which the mutation tests below reach."""
    inst, targ, dim = draw(_graphs()), draw(_graphs()), draw(st.integers(1, 2))
    s = Strategy(inst, targ, dim, draw(_stacks(inst.n, targ.n, dim, dim)),
                 draw(st.dictionaries(_VERTEX_PAIRS, st.fractions(), max_size=4)),
                 tol=draw(st.floats(0.0, 1.0)))
    edges, outcomes = inst.directed_edges(), targ.directed_edges()
    matrices = _stacks(dim, dim) | st.just(np.zeros((dim, dim), dtype=complex))
    families = st.dictionaries(st.sampled_from(edges), st.dictionaries(
        st.sampled_from(outcomes), matrices, min_size=1, max_size=3), max_size=3)
    edge_pvms = draw(st.none() | (families if edges and outcomes else st.just({})))
    if edge_pvms is not None:
        set_edge_pvms(s, edge_pvms)
    return s


@settings(max_examples=100, deadline=None)
@given(_reps())
def test_rep_documents_round_trip_to_equal_bytes(rep):
    text = json.dumps(rep.to_json(), sort_keys=True)
    back = rep_from_json(json.loads(text))
    assert json.dumps(back.to_json(), sort_keys=True) == text
    assert np.array_equal(back.present, rep.present)


@settings(max_examples=100, deadline=None)
@given(_strategies())
def test_strategy_documents_round_trip_to_equal_bytes(s):
    text = json.dumps(s.to_json(), sort_keys=True)
    back = strategy_from_json(json.loads(text))
    assert json.dumps(back.to_json(), sort_keys=True) == text
    assert back.dist == s.dist


# values that replace a field, an entry or an element of a document
_ODD_VALUES = [None, True, -1, 0, 1.9, 10 ** 30, "1", "x", "1/0", "", [], [1], [[1, 0]],
               [[[1, 0]]], {}, {"0": 1}, math.nan, math.inf, -1e308]
# edits of a key; int() read the first three as the key they change
_KEY_EDITS = [lambda k: "+" + k, lambda k: "0_" + k, lambda k: k.translate({48: "٠"}),
              lambda k: " " + k + " ", lambda k: k + ",0", lambda k: k.replace(",", "|"),
              lambda k: k.replace(",", ""), lambda k: "", lambda k: "-" + k, lambda k: "9" + k]


def _containers(node, out):
    if isinstance(node, (dict, list)):
        out.append(node)
        for child in (node.values() if isinstance(node, dict) else node):
            _containers(child, out)
    return out


def _mutate(doc, choose):
    """Edit one object or list of ``doc`` in place, every choice made by
    ``choose(n)``, an integer in range(n): drop, retype or rekey one of its
    items, or add one (a longer matrix row makes the matrices ragged)."""
    nodes = _containers(doc, [])
    node = nodes[choose(len(nodes))]
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = choose(4) if keys else 3
    odd = copy.deepcopy(_ODD_VALUES[choose(len(_ODD_VALUES))])
    if op == 0:
        del node[keys[choose(len(keys))]]
    elif op == 1:
        node[keys[choose(len(keys))]] = odd
    elif op == 2 and isinstance(node, dict):
        key = keys[choose(len(keys))]
        node[_KEY_EDITS[choose(len(_KEY_EDITS))](key)] = node.pop(key)
    elif isinstance(node, list):
        node.append(copy.deepcopy(node[choose(len(node))]) if node and choose(2) else odd)
    else:
        node[f"{choose(3)},{choose(3)}"] = odd


def _mutated(doc, choose):
    doc = json.loads(json.dumps(doc))
    for _ in range(1 + choose(3)):
        _mutate(doc, choose)
    return doc


def _chooser(data):
    return lambda n: data.draw(st.integers(0, n - 1))


def _edge_strategy():
    h, g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), graph_from_edges(2, [(0, 1)])
    return classical_strategy(h, g, [0, 1, 0, 1], with_edge_pvms=True)


_PAIR_DIST = {"0,1|1,2": "1/2", "1,2|2,3": "1/4", "2,3|3,2": "1/4"}


@settings(max_examples=200, deadline=None)
@given(_reps(), st.data())
def test_rep_loader_returns_a_rep_or_raises_value_error(rep, data):
    doc = _mutated(rep.to_json(), _chooser(data))
    try:
        back = rep_from_json(doc)
    except ValueError:
        return
    assert back.mats.shape == (back.domain.n, back.codomain.n, back.dim, back.dim)
    verify_rep(back, oracular=True)


@settings(max_examples=200, deadline=None)
@given(_strategies() | st.just(_edge_strategy()), st.data())
def test_strategy_loader_returns_a_strategy_or_raises_value_error(s, data):
    doc = _mutated(s.to_json(), _chooser(data))
    try:
        back = strategy_from_json(doc)
    except ValueError:
        return
    assert back.vertex_pvms.shape == (back.instance.n, back.target.n, back.dim, back.dim)
    if back.edge_pvms is not None:
        # every family and every outcome the document lists has its own entry
        fams = doc["edge_pvms"]
        assert back.edge_pvms.shape[:2] == back.edge_present.shape == (
            len(back.instance.directed_edges()), len(back.target.directed_edges()))
        assert back.edge_present.any(axis=1).sum() == len(fams)
        assert back.edge_present.sum() == sum(len(fam) for fam in fams.values())
    for defect in (assignment_defect, cv_defect, lambda s: commutator_defect(s, 0, 0)):
        try:
            with np.errstate(all="ignore"):  # infinite entries overflow
                assert isinstance(defect(back), float)
        except ValueError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_dist_loader_returns_a_distribution_or_raises_value_error(data):
    doc = _mutated(_PAIR_DIST, _chooser(data))
    try:
        pair_dist = pair_dist_from_json(doc)
    except ValueError:
        return
    assert all(isinstance(w, Fraction) for w in pair_dist.values())
    try:
        assert isinstance(cc_defect(_edge_strategy(), pair_dist), float)
    except ValueError:
        pass


def _rep_doc():
    k2 = graph_from_edges(2, [(0, 1)])
    mats = np.zeros((2, 2, 1, 1), dtype=complex)
    mats[[0, 1], [1, 0]] = 1.0
    return QuantumRep(k2, k2, 1, mats, mats[..., 0, 0] != 0).to_json()


@pytest.mark.parametrize("seed", range(3))
def test_mutated_documents_in_a_fresh_process(tmp_path, seed):
    choose = random.Random(seed).randrange
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps(_mutated(_edge_strategy().to_json(), choose)))
    rep, pairs = tmp_path / "rep.json", tmp_path / "pairs.json"
    rep.write_text(json.dumps(_mutated(_rep_doc(), choose)))
    pairs.write_text(json.dumps(_mutated(_PAIR_DIST, choose)))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_edge_strategy().to_json()))
    for argv in (["rep-verify", str(rep)], ["defect", str(strategy), "--model", "c-v"],
                 ["defect", str(good), "--model", "c-c", "--pair-dist", str(pairs)]):
        proc = run_fresh(*argv, "--json")
        assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr


def _repeat(fams, key, again):
    fams[again] = fams[key]


@pytest.mark.parametrize("load, edit, message", [
    (rep_from_json, lambda d: _repeat(d["mats"], "0,1", " 0, 01 "),
     "mats keys '0,1' and ' 0, 01 ' name the same entry (0,1)"),
    (strategy_from_json, lambda d: _repeat(d["vertex_pvms"], "2", "002"),
     "vertex_pvms keys '2' and '002' name the same entry 2"),
    (strategy_from_json, lambda d: _repeat(d["dist"], "1,2", "01,2"),
     "dist keys '1,2' and '01,2' name the same entry (1,2)"),
    (strategy_from_json, lambda d: _repeat(d["edge_pvms"], "2,3", "2,003"),
     "edge_pvms keys '2,3' and '2,003' name the same entry (2,3)"),
    (strategy_from_json, lambda d: _repeat(d["edge_pvms"]["0,1"], "0,1", "-0,1"),
     "outcome keys '0,1' and '-0,1' name the same entry (0,1)"),
    (pair_dist_from_json, lambda d: _repeat(d, "1,2|2,3", "1,2|2,03"),
     "pair keys '1,2|2,3' and '1,2|2,03' name the same entry ((1,2),(2,3))"),
], ids=["mats", "vertex_pvms", "dist", "edge_pvms", "outcome", "pair-dist"])
def test_two_keys_for_one_entry_are_refused(load, edit, message):
    # a map of entries would keep the last of the two, whatever its value
    doc = {rep_from_json: _rep_doc, strategy_from_json: lambda: _edge_strategy().to_json(),
           pair_dist_from_json: lambda: dict(_PAIR_DIST)}[load]()
    load(doc)
    edit(doc)
    with pytest.raises(ValueError) as info:
        load(doc)
    assert str(info.value) == message


def _one_vertex_rep():
    one = {"n": 1, "edges": []}
    return {"domain": dict(one), "codomain": dict(one), "dim": 1, "tol": 1e-9,
            "mats": {"0,0": [[[1.0, 0.0]]]}}


# JSON's true and false load as bools, which Python counts as 1 and 0: each
# edit writes one where the document holds the number it would read as, so
# the edited document used to load as the original
@pytest.mark.parametrize("load, doc, path, value", [
    (rep_from_json, _one_vertex_rep, ("dim",), True),
    (rep_from_json, _one_vertex_rep, ("tol",), False),
    (rep_from_json, _one_vertex_rep, ("domain", "n"), True),
    (rep_from_json, _one_vertex_rep, ("codomain", "n"), True),
    (rep_from_json, _rep_doc, ("domain", "edges", 0), [False, True]),
    (strategy_from_json, lambda: _edge_strategy().to_json(), ("dim",), True),
    (strategy_from_json, lambda: _edge_strategy().to_json(), ("tol",), True),
    (strategy_from_json, lambda: _edge_strategy().to_json(), ("instance", "edges", 0, 1), True),
    (strategy_from_json, lambda: _edge_strategy().to_json(), ("target", "edges", 0),
     [False, True]),
], ids=["rep-dim", "rep-tol", "rep-domain-n", "rep-codomain-n", "rep-edge", "strategy-dim",
        "strategy-tol", "strategy-edge-end", "strategy-edge"])
def test_json_booleans_are_not_numbers(load, doc, path, value):
    doc = doc()
    load(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    with pytest.raises(ValueError, match="not an integer|needs an integer|finite number"):
        load(doc)


def test_json_booleans_are_refused_in_a_fresh_process(tmp_path):
    # at tol true, a residual of 0.75 used to pass with exit 0
    doc = _one_vertex_rep()
    doc["tol"], doc["mats"]["0,0"] = True, [[[1.5, 0.0]]]
    (tmp_path / "tol.json").write_text(json.dumps(doc))
    doc = _rep_doc()
    doc["domain"]["edges"] = [[False, True]]
    (tmp_path / "edge.json").write_text(json.dumps(doc))
    doc = _edge_strategy().to_json()
    doc["dim"] = True
    (tmp_path / "dim.json").write_text(json.dumps(doc))
    for argv in (["rep-verify", "tol.json"], ["rep-verify", "edge.json"],
                 ["defect", "dim.json", "--model", "a"]):
        argv[1] = str(tmp_path / argv[1])
        proc = run_fresh(*argv, "--json")
        assert proc.returncode == 1 and proc.stderr.startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr


def _k2_strategy():
    k2 = graph_from_edges(2, [(0, 1)])
    return classical_strategy(k2, k2, [0, 1]).to_json()


# a weight of true or false read as 1 or 0: K:2 with dist {"0,1": true,
# "1,0": false} used to load and score an assignment defect of 0.0; a 1
# parsed first must not let an equal true through the per-value cache
@pytest.mark.parametrize("load, doc", [
    (strategy_from_json, lambda: dict(_k2_strategy(), dist={"0,1": True, "1,0": False})),
    (strategy_from_json, lambda: dict(_k2_strategy(), dist={"0,1": 1, "1,0": True})),
    (pair_dist_from_json, lambda: {"0,1|1,0": True}),
    (pair_dist_from_json, lambda: {"0,1|1,0": 1, "1,0|0,1": True}),
], ids=["dist", "dist-after-1", "pair-dist", "pair-dist-after-1"])
def test_json_boolean_weights_are_refused(load, doc):
    with pytest.raises(ValueError, match="weight true is not a number"):
        load(doc())


def test_json_boolean_weights_are_refused_in_a_fresh_process(tmp_path):
    (tmp_path / "dist.json").write_text(
        json.dumps(dict(_k2_strategy(), dist={"0,1": True, "1,0": False})))
    (tmp_path / "good.json").write_text(json.dumps(_edge_strategy().to_json()))
    (tmp_path / "pairs.json").write_text(json.dumps({"0,1|1,2": True}))
    for argv in (["defect", "dist.json", "--model", "a"],
                 ["defect", "good.json", "--model", "c-c", "--pair-dist", "pairs.json"]):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        proc = run_fresh(*argv, "--json")
        assert proc.returncode == 1 and proc.stderr.startswith("error: "), proc.stderr
        assert "Traceback" not in proc.stderr


# a graph document lists each edge once, in either orientation, and its m,
# if given, counts them: K:2 as [[0, 1], [1, 0]] used to load as K:2
@pytest.mark.parametrize("doc, key", [(_rep_doc, "domain"), (_k2_strategy, "instance")],
                         ids=["rep", "strategy"])
@pytest.mark.parametrize("edges, m, message", [
    ([[0, 1], [1, 0]], 2, "duplicate edge (1,0)"),
    ([[0, 1], [0, 1]], None, "duplicate edge (0,1)"),
    ([[0, 1], [1, 0], [0, 1]], 7, "graph document announces 7 edges but lists 3"),
    ([[0, 1]], 0, "graph document announces 0 edges but lists 1"),
], ids=["reversed", "repeated-without-m", "wrong-m", "m-too-small"])
def test_graph_documents_list_each_edge_once(doc, key, edges, m, message):
    load = rep_from_json if key == "domain" else strategy_from_json
    doc = doc()
    load(doc)
    doc[key]["edges"] = edges
    if m is None:
        del doc[key]["m"]
    else:
        doc[key]["m"] = m
    with pytest.raises(ValueError) as info:
        load(doc)
    assert str(info.value) == message


def test_repeated_graph_edges_are_refused_in_a_fresh_process(tmp_path):
    rep, strategy = _rep_doc(), _k2_strategy()
    rep["domain"].update(edges=[[0, 1], [1, 0]], m=2)
    strategy["instance"].update(edges=[[0, 1], [1, 0]], m=2)
    (tmp_path / "rep.json").write_text(json.dumps(rep))
    (tmp_path / "strategy.json").write_text(json.dumps(strategy))
    for argv in (["rep-verify", "rep.json"], ["defect", "strategy.json", "--model", "a"]):
        argv[1] = str(tmp_path / argv[1])
        proc = run_fresh(*argv, "--json")
        assert proc.returncode == 1 and proc.stderr == "error: duplicate edge (1,0)\n", proc.stderr


@pytest.mark.parametrize("doc, key", [(_rep_doc, "domain"), (_k2_strategy, "instance")],
                         ids=["rep", "strategy"])
@pytest.mark.parametrize("label, kind", [({"x": [1]}, "dict"), ([1], "list"), (7, "int"),
                                         (None, "NoneType")], ids=["dict", "list", "int", "null"])
def test_graph_labels_are_strings(doc, key, label, kind):
    # a dict label used to load and be written back by to_json
    load = rep_from_json if key == "domain" else strategy_from_json
    doc = doc()
    doc[key]["label"] = "K:2"
    assert getattr(load(doc), key).label == "K:2"
    doc[key]["label"] = label
    with pytest.raises(ValueError) as info:
        load(doc)
    assert str(info.value) == f"graph document needs 'label' as a string, got {kind}"


_ONE = '{"n": 1, "edges": []}'
_K2 = '{"n": 2, "edges": [[0, 1]]}'
_VERTEX_PVMS = '{"0": [[[[1.0, 0.0]]], [[[0.0, 0.0]]]], "1": [[[[0.0, 0.0]]], [[[1.0, 0.0]]]]}'

# argv after the document's path, the document with one key given twice,
# and that key; json.load keeps the last of the two values, so each used to
# load as if the first were never written, and pass with exit 0
REPEATED_KEYS = {
    "rep-mats": (["rep-verify"],
                 f'{{"domain": {_ONE}, "codomain": {_ONE}, "dim": 1, '
                 '"mats": {"0,0": [[[42.0, 0.0]]], "0,0": [[[1.0, 0.0]]]}}', "0,0"),
    "strategy-dist": (["defect", "--model", "a"],
                      f'{{"instance": {_K2}, "target": {_K2}, "dim": 1, '
                      f'"vertex_pvms": {_VERTEX_PVMS}, '
                      '"dist": {"0,1": "1/1", "1,0": "1/1", "0,1": "0"}}', "0,1"),
    "rep-dim": (["rep-verify"],
                f'{{"dim": 2, "domain": {_ONE}, "codomain": {_ONE}, "dim": 1, '
                '"mats": {"0,0": [[[1.0, 0.0]]]}}', "dim"),
}


def _argv(case, path):
    command, *rest = REPEATED_KEYS[case][0]
    return [command, str(path), *rest, "--json"]


@pytest.mark.parametrize("case", list(REPEATED_KEYS))
def test_repeated_json_keys_are_refused(tmp_path, capsys, case):
    _, text, key = REPEATED_KEYS[case]
    merged, repeated = tmp_path / "merged.json", tmp_path / "repeated.json"
    # the document as json.load reads it passes
    merged.write_text(json.dumps(json.loads(text)))
    repeated.write_text(text)
    assert main(_argv(case, merged)) == 0
    capsys.readouterr()
    assert main(_argv(case, repeated)) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f'error: repeated key "{key}" in a JSON object\n'


def test_repeated_json_keys_are_refused_in_a_fresh_process(tmp_path):
    for case, (_, text, key) in REPEATED_KEYS.items():
        path = tmp_path / f"{case}.json"
        path.write_text(text)
        proc = run_fresh(*_argv(case, path))
        assert proc.returncode == 1 and proc.stdout == "", proc.stderr
        assert proc.stderr == f'error: repeated key "{key}" in a JSON object\n'


def test_json_objects_load_in_document_order_at_every_depth(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"b": {"y": [{"q": 1, "p": 2}], "x": 0}, "a": 1}')
    doc = _load_json(str(path), lambda d: d)
    assert list(doc) == ["b", "a"] and list(doc["b"]) == ["y", "x"]
    assert list(doc["b"]["y"][0]) == ["q", "p"]
    path.write_text('{"b": {"y": [{"q": 1, "q": 2}], "x": 0}, "a": 1}')
    with pytest.raises(ValueError, match='^repeated key "q" in a JSON object$'):
        _load_json(str(path), lambda d: d)


def test_non_string_graph_labels_are_refused_in_a_fresh_process(tmp_path):
    rep, strategy = _rep_doc(), _k2_strategy()
    rep["domain"]["label"] = {"x": [1]}
    strategy["target"]["label"] = ["K:2"]
    (tmp_path / "rep.json").write_text(json.dumps(rep))
    (tmp_path / "strategy.json").write_text(json.dumps(strategy))
    for argv, kind in ((["rep-verify", "rep.json"], "dict"),
                       (["defect", "strategy.json", "--model", "a"], "list")):
        argv[1] = str(tmp_path / argv[1])
        proc = run_fresh(*argv, "--json")
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: graph document needs 'label' as a string, got {kind}\n"
