"""Graph construction, families, products, and edge-list IO."""

import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgadget import (Graph, adjacency_equal, box_product, build_family, categorical_product,
                     complement, graph_from_edges, graph_from_json,
                     parse_graph, serialize_graph)
from qgadget.graphs import MAX_NESTING
from conftest import degree, find_isomorphism


def test_complete_graph_counts():
    g = build_family("K:4")
    assert g.n == 4 and g.num_edges == 6


def test_kneser_petersen_counts():
    # oracle: count disjoint pairs of 2-subsets of a 5-set directly
    subsets = list(combinations(range(5), 2))
    expected = sum(1 for a, b in combinations(subsets, 2) if not set(a) & set(b))
    g = build_family("KG:5,2")
    assert g.n == 10
    assert expected == 15
    assert g.num_edges == expected


def test_diamond_edges():
    g = build_family("diamond")
    assert g.n == 4
    assert set(g.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)}


def test_dprime_is_c6_plus_long_chord():
    g = build_family("dprime")
    c6 = build_family("C:6")
    expected = set(c6.edges()) | {(0, 3)}
    assert set(g.edges()) == expected


@pytest.mark.parametrize("bad", ["C:2", "K:0", "KG:2,3", "O:1", "Q:5", "", "box(K:2)",
                                 "cmpl(K:2,K:3)", "K:x", "KG:5", "box(K:2,C:2)"])
def test_malformed_descriptors(bad):
    with pytest.raises(ValueError):
        build_family(bad)


def test_complement_of_c6_is_prism():
    g = build_family("cmpl(C:6)")
    assert g.n == 6 and g.num_edges == 9
    prism = build_family("box(C:3,P:1)")
    assert find_isomorphism(g, prism) is not None


def test_complement_of_complete_is_edgeless():
    g = build_family("cmpl(K:5)")
    assert g.n == 5 and g.num_edges == 0


def test_complement_involution(small_family_graphs):
    for g in small_family_graphs:
        assert np.array_equal(complement(complement(g)).adj, g.adj)


def test_complement_edge_count(small_family_graphs):
    for g in small_family_graphs:
        assert complement(g).num_edges + g.num_edges == g.n * (g.n - 1) // 2


def test_box_product_counts():
    g = build_family("box(C:5,P:3)")
    # oracle: |V_G||E_H| + |E_G||V_H| = 5*3 + 5*4
    assert g.n == 20 and g.num_edges == 5 * 3 + 5 * 4


def test_box_identity_factor():
    h = build_family("diamond")
    prod = box_product(build_family("K:1"), h)
    assert np.array_equal(prod.adj, h.adj)


def test_box_c3_p1_is_prism():
    assert find_isomorphism(build_family("box(C:3,P:1)"), build_family("cmpl(C:6)")) is not None


def test_tensor_counts():
    g = build_family("tensor(K:3,K:3)")
    assert g.n == 9 and g.num_edges == 2 * 3 * 3


def test_tensor_with_edgeless_is_edgeless():
    g = categorical_product(build_family("diamond"), build_family("cmpl(K:3)"))
    assert g.num_edges == 0


def test_tensor_k2_k2_is_two_disjoint_edges():
    g = build_family("tensor(K:2,K:2)")
    # indexing (x,y) -> 2x+y: the two edges join (0,0)-(1,1) and (0,1)-(1,0)
    assert g.n == 4 and set(g.edges()) == {(0, 3), (1, 2)}
    assert all(degree(g, u) == 1 for u in range(4))


def test_products_commute_up_to_isomorphism():
    pairs = [("C:3", "P:1"), ("K:2", "C:4"), ("P:2", "P:1"), ("K:3", "K:2"), ("C:3", "C:4")]
    for sa, sb in pairs:
        a, b = build_family(sa), build_family(sb)
        for prod in (box_product, categorical_product):
            left, right = prod(a, b), prod(b, a)
            assert left.n <= 12
            assert find_isomorphism(left, right) is not None
            # the canonical re-indexing bijection (x,y) -> (y,x) is an isomorphism
            swap = [(v % b.n) * a.n + (v // b.n) for v in range(left.n)]
            for u in range(left.n):
                for v in range(left.n):
                    assert left.adj[u, v] == right.adj[swap[u], swap[v]]


def _networkx(g: Graph):
    nx = pytest.importorskip("networkx")
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def _assert_isomorphism_oracle_agrees(g: Graph, h: Graph):
    # find_isomorphism against networkx's VF2, both ways; a found map must
    # carry g's adjacency onto h's
    nx = pytest.importorskip("networkx")
    expected = nx.is_isomorphic(_networkx(g), _networkx(h))
    for a, b in ((g, h), (h, g)):
        p = find_isomorphism(a, b)
        assert (p is not None) == expected
        if p is not None:
            assert sorted(p) == list(range(a.n))
            assert np.array_equal(b.adj[np.ix_(p, p)], a.adj)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.data())
def test_isomorphism_oracle_matches_networkx(n, data):
    pairs = list(combinations(range(n), 2))
    g = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    if data.draw(st.booleans()):
        # a relabelled copy: isomorphic by construction
        perm = data.draw(st.permutations(range(n)))
        h = graph_from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
    else:
        # as many edges, often not isomorphic
        h = graph_from_edges(n, data.draw(st.lists(st.sampled_from(pairs), min_size=g.num_edges,
                                                   max_size=g.num_edges, unique=True))
                             if pairs else [])
    _assert_isomorphism_oracle_agrees(g, h)


@pytest.mark.parametrize("left, right", [("KG:5,2", "petersen"), ("O:3", "KG:5,2"),
                                         ("O:4", "KG:7,3"), ("petersen", "box(C:5,P:1)")])
def test_family_identities_match_networkx(left, right):
    # KG:5,2 is the Petersen graph and O:n is KG:2n-1,n-1; the pentagonal
    # prism, cubic on 10 vertices like Petersen, is the negative control
    _assert_isomorphism_oracle_agrees(build_family(left), build_family(right))
    found = find_isomorphism(build_family(left), build_family(right))
    assert (found is None) == (right == "box(C:5,P:1)")


def test_kneser_edge_count_bruteforce():
    for n in range(1, 10):
        for k in range(1, n + 1):
            subsets = list(combinations(range(n), k))
            expected = sum(1 for a, b in combinations(subsets, 2) if not set(a) & set(b))
            assert build_family(f"KG:{n},{k}").num_edges == expected


def _kneser_pair_loop(n, k):
    """KG:n,k's adjacency by the definition: one disjointness test per pair
    of k-subsets, taken in lexicographic order, as bitmasks.  A subset meets
    itself, so the diagonal is false."""
    masks = [sum(1 << e for e in c) for c in combinations(range(n), k)]
    return np.array([[not a & b for b in masks] for a in masks], dtype=bool)


def test_kneser_adjacency_matches_the_pair_loop():
    # every (n, k) with C(n, k) <= 200; KG:n,n has one vertex for every n,
    # and KG:n,1 is K:n
    for n in range(1, 201):
        for k in range(1, n + 1):
            if math.comb(n, k) <= 200:
                g = build_family(f"KG:{n},{k}")
                assert np.array_equal(g.adj, _kneser_pair_loop(n, k)), (n, k)
        assert np.array_equal(build_family(f"KG:{n},1").adj, build_family(f"K:{n}").adj)


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert np.array_equal(g.adj, build_family("P:2").adj)


def test_parse_diamond():
    g = parse_graph("4 5\n0 1\n1 2\n2 3\n3 0\n1 3")
    assert np.array_equal(g.adj, build_family("diamond").adj)


@pytest.mark.parametrize("doc,msg", [
    ("2 1\n0 0", "loop"),
    ("2 2\n0 1\n0 1", "duplicate"),
    ("2 1\n0 5", "range"),
    ("2\n0 1", "header"),
    ("2 2\n0 1", "announces"),
    ("x y\n0 1", "header"),
])
def test_parse_errors(doc, msg):
    with pytest.raises(ValueError, match=msg):
        parse_graph(doc)


# the two graph document formats follow one set of rules: a loop, a wrong
# count and an out-of-range loop used to give different messages in each
@pytest.mark.parametrize("edges, m, message", [
    ([(0, 1), (0, 1)], 2, "duplicate edge (0,1)"),
    ([(0, 1), (1, 0)], 2, "duplicate edge (1,0)"),
    ([(0, 0)], 1, "loop edge (0,0) not allowed"),
    ([(0, 1), (0, 5)], 2, "edge (0,5) out of range for n=3"),
    ([(0, 1)], 2, "graph document announces 2 edges but lists 1"),
    ([(5, 5)], 1, "edge (5,5) out of range for n=3"),
], ids=["repeat", "reversed-repeat", "loop", "out-of-range", "wrong-count", "out-of-range-loop"])
def test_both_graph_formats_give_one_message_per_fault(edges, m, message):
    text = "\n".join([f"3 {m}"] + [f"{u} {v}" for u, v in edges])
    with pytest.raises(ValueError) as from_text:
        parse_graph(text)
    with pytest.raises(ValueError) as from_json:
        graph_from_json({"n": 3, "m": m, "edges": [list(e) for e in edges]})
    assert str(from_text.value) == str(from_json.value) == message


# int() also reads a plus sign, underscores and non-ASCII digits: "K:1_0"
# built K:10, and "1_0 0" a 10-vertex edge list
@pytest.mark.parametrize("spec", ["K:1_0", "C:\u0665", "K:+3", "K:\uff13", "KG:5,+2",
                                  "box(C:5,P:1_0)"])
def test_descriptor_integers_are_ascii_digits(spec):
    with pytest.raises(ValueError, match="malformed"):
        build_family(spec)


@pytest.mark.parametrize("doc,msg", [
    ("1_0 0\n", "malformed header"),
    ("+2 0\n", "malformed header"),
    ("\u0662 0\n", "malformed header"),
    ("3 1\n0 1_0\n", "malformed edge line"),
    ("3 1\n+0 1\n", "malformed edge line"),
    ("3 1\n0 \u0661\n", "malformed edge line"),
])
def test_edge_list_integers_are_ascii_digits(doc, msg):
    with pytest.raises(ValueError, match=msg):
        parse_graph(doc)


def test_strict_integers_keep_whitespace_and_range_messages():
    g = build_family("K: 3")
    assert g.n == 3 and g.label == "K:3"
    with pytest.raises(ValueError, match="path length must be >= 0"):
        build_family("P:-1")
    with pytest.raises(ValueError, match="negative counts"):
        parse_graph("-1 0\n")
    with pytest.raises(ValueError, match=r"edge \(0,-1\) out of range"):
        parse_graph("2 1\n0 -1\n")


def test_serialize_round_trip(small_family_graphs):
    for g in small_family_graphs:
        text = serialize_graph(g)
        back = parse_graph(text)
        assert np.array_equal(back.adj, g.adj)
        assert serialize_graph(back) == text


def test_comments_and_blank_lines_ignored():
    g = parse_graph("# a triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n")
    assert g.num_edges == 3


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 5)])
    bad = np.zeros((2, 2), dtype=bool)
    bad[0, 1] = True  # asymmetric
    from qgadget import Graph
    with pytest.raises(ValueError):
        Graph(2, bad)


def test_constructed_graphs_satisfy_invariants(small_family_graphs):
    for g in small_family_graphs:
        assert np.array_equal(g.adj, g.adj.T)
        assert not g.adj.diagonal().any()


def test_nbr_masks_match_adjacency(small_family_graphs):
    for g in small_family_graphs:
        assert len(g.nbr_masks) == g.n
        for u in range(g.n):
            bits = [v for v in range(g.n) if g.nbr_masks[u] >> v & 1]
            assert bits == g.neighbors(u).tolist(), (g.label, u)
            assert g.nbr_masks[u] >> g.n == 0


def test_edges_returns_a_fresh_list():
    g = build_family("C:4")
    g.edges().clear()
    assert g.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_to_json_leaves_no_edge_objects_on_the_graph():
    # to_json used to cache a tuple per edge on the graph, about 10 MB for
    # the 130,304 edges of cmpl(C:512), alive as long as the graph
    g = build_family("cmpl(C:512)")
    g._edge_ends  # the two index arrays, the one edge layout a graph keeps
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(g.to_json()["edges"]) == g.num_edges == 130_304
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 100_000, kept


def test_graph_json_round_trip(small_family_graphs):
    for g in small_family_graphs:
        back = graph_from_json(json.loads(json.dumps(g.to_json())))
        assert adjacency_equal(back, g) and back.label == g.label


@pytest.mark.parametrize("bad", [[], "C:4", {"n": 3}, {"edges": []}, {"n": "3", "edges": []},
                                 {"n": 3, "edges": {}}, {"n": 3, "edges": [[0]]},
                                 {"n": 3, "edges": [[0, 1.5]]}, {"n": 3, "edges": [[0, 5]]},
                                 {"n": -1, "edges": []}, {"n": 10 ** 9, "edges": []},
                                 {"n": 3, "edges": [[0, 1], [1, 0]]},
                                 {"n": 3, "m": 2, "edges": [[0, 1]]},
                                 {"n": 3, "m": True, "edges": [[0, 1]]},
                                 {"n": 3, "m": 1.0, "edges": [[0, 1]]}])
def test_graph_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        graph_from_json(bad)


def _nested(template, depth):
    spec = "K:2"
    for _ in range(depth):
        spec = template.format(spec)
    return spec


@pytest.mark.parametrize("template", ["cmpl({})", "box({},K:1)", "tensor(K:1,{})"])
def test_nesting_bound(template):
    assert build_family(_nested(template, MAX_NESTING)).n == 2
    with pytest.raises(ValueError, match=f"nested deeper than {MAX_NESTING} levels"):
        build_family(_nested(template, MAX_NESTING + 1))


# DSL fragments; a digit is never followed by another, so every parameter
# has one digit and the graphs stay small
_WORDS = ["K", "C", "P", "O", "KG", "kg", "petersen", "Diamond", "dprime",
          "cmpl", "box", "BOX", "tensor"]
_MARKS = ["(", ")", ",", ":", " ", "-", "+", "x", "\t"]
_DIGITS = list("0123456789")


@st.composite
def _token_descriptors(draw):
    out = []
    for _ in range(draw(st.integers(0, 16))):
        after_digit = bool(out) and out[-1] in _DIGITS
        out.append(draw(st.sampled_from(_WORDS + _MARKS + ([] if after_digit else _DIGITS))))
    return "".join(out)


_LEAVES = st.builds("{}:{}".format, st.sampled_from(["K", "C", "P", "O"]),
                    st.integers(0, 9)) | st.sampled_from(["petersen", "diamond", "dprime",
                                                          "KG:5,2", "KG:9,4", "KG:3,5"])
_WELL_FORMED = st.recursive(
    _LEAVES,
    lambda kids: (kids.map("cmpl({})".format)
                  | st.tuples(st.sampled_from(["box", "tensor"]), kids, kids)
                  .map(lambda t: f"{t[0]}({t[1]},{t[2]})")),
    max_leaves=3)


@settings(max_examples=300, deadline=None)
@given(_token_descriptors() | _WELL_FORMED)
def test_build_family_returns_a_graph_or_raises_value_error(spec):
    try:
        g = build_family(spec)
    except ValueError:
        return
    assert isinstance(g, Graph) and g.adj.shape == (g.n, g.n)


_DOC_LINES = st.one_of(
    st.text(max_size=8),
    st.builds("{} {}".format, st.integers(-3, 12), st.integers(-3, 12)),
    st.builds("{} {} {}".format, st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    st.sampled_from(["# comment", "", "  ", "1 1", "0 1", "10**9 0", "4097 0", "1e3 0"]))


@st.composite
def _documents(draw):
    """Edge lists near the format: edges out of range, loops, duplicates, a
    header one count off, and stray lines among them."""
    edges = draw(st.lists(st.tuples(st.integers(-1, 8), st.integers(-1, 8)), max_size=8))
    m = len(edges) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    lines = [f"{draw(st.integers(-1, 8))} {m}"] + [f"{u} {v}" for u, v in edges]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_DOC_LINES))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(_documents() | st.lists(_DOC_LINES, max_size=8).map("\n".join) | st.text(max_size=40))
def test_parse_graph_returns_a_graph_or_raises_value_error(text):
    try:
        g = parse_graph(text)
    except ValueError:
        return
    assert isinstance(g, Graph) and g.adj.shape == (g.n, g.n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                        .filter(lambda e: e[0] != e[1]) if n > 1 else st.nothing()))))
def test_serialize_round_trips_on_random_graphs(case):
    n, edges = case
    g = graph_from_edges(n, edges)
    text = serialize_graph(g)
    back = parse_graph(text)
    assert adjacency_equal(back, g)
    assert serialize_graph(back) == text
