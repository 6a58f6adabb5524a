"""Graph construction, families, products, and edge-list IO."""

import json
from itertools import combinations

import numpy as np
import pytest

from qgadget import (adjacency_equal, box_product, build_family, categorical_product,
                     complement, graph_from_edges, graph_from_json,
                     parse_graph, serialize_graph)
from conftest import find_isomorphism


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
    assert all(g.degree(u) == 1 for u in range(4))


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


def test_kneser_edge_count_bruteforce():
    for n in range(1, 10):
        for k in range(1, n + 1):
            subsets = list(combinations(range(n), k))
            expected = sum(1 for a, b in combinations(subsets, 2) if not set(a) & set(b))
            assert build_family(f"KG:{n},{k}").num_edges == expected


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


def test_graph_json_round_trip(small_family_graphs):
    for g in small_family_graphs:
        back = graph_from_json(json.loads(json.dumps(g.to_json())))
        assert adjacency_equal(back, g) and back.label == g.label


@pytest.mark.parametrize("bad", [[], "C:4", {"n": 3}, {"edges": []}, {"n": "3", "edges": []},
                                 {"n": 3, "edges": {}}, {"n": 3, "edges": [[0]]},
                                 {"n": 3, "edges": [[0, 1.5]]}, {"n": 3, "edges": [[0, 5]]},
                                 {"n": -1, "edges": []}, {"n": 10 ** 9, "edges": []}])
def test_graph_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        graph_from_json(bad)
