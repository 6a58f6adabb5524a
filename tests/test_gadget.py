"""Gadget candidates: pin tables, walk obstructions, transfer, splicing, disproof."""

import re
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgadget.gadget
import qgadget.walks
from qgadget import (GadgetCandidate, Graph, VerificationFailure, VerificationReport,
                     adjacency_equal, box_product, build_family, check_property_i_classical,
                     commutator_norm, complement_cycle_gadget, cycle_graph,
                     disprove_box_path_gadget, distance, enumerate_candidate_classes,
                     graph_from_edges, lift_box_rep, path_graph, path_to_cycle_rep,
                     product_transfer, splice_gadget, verify_rep, walk_obstruction, walk_table)
from qgadget.gadget import refute_candidate_pairs
from conftest import find_isomorphism


def test_prism_property_i_complete():
    cand = GadgetCandidate(build_family("cmpl(C:6)"), 0, 1, build_family("K:3"))
    table = check_property_i_classical(cand)
    assert table.complete and len(table.witnesses) == 9
    for (a, b), w in table.witnesses.items():
        assert w[0] == a and w[1] == b


def test_adjacent_pins_miss_diagonal():
    cand = GadgetCandidate(build_family("K:2"), 0, 1, build_family("K:3"))
    table = check_property_i_classical(cand)
    assert not table.complete
    for a in range(3):
        assert table.witnesses[(a, a)] is None
    for a in range(3):
        for b in range(3):
            if a != b:
                assert table.witnesses[(a, b)] is not None


@pytest.mark.parametrize("field, match", [(3, "does not preserve edge"), (0, "misses its pins")])
def test_corrupted_property_i_witness_is_a_verification_failure(monkeypatch, field, match):
    search = qgadget.gadget._first_homomorphisms

    def corrupted(h, g, domains):
        for m in search(h, g, domains):
            if domains[:2] == [1 << 1, 1 << 2]:  # the pins 0 -> 1, 1 -> 2
                m = list(m)
                m[field] = m[1]  # prism vertex 3 is adjacent to 1; vertex 0 is pinned
                m = tuple(m)
            yield m

    monkeypatch.setattr(qgadget.gadget, "_first_homomorphisms", corrupted)
    cand = GadgetCandidate(build_family("cmpl(C:6)"), 0, 1, build_family("K:3"))
    with pytest.raises(VerificationFailure, match=match):
        check_property_i_classical(cand)
    with pytest.raises(VerificationFailure):
        complement_cycle_gadget(3)


def test_c8_complement_property_i_complete():
    cand = GadgetCandidate(build_family("cmpl(C:8)"), 0, 1, build_family("K:4"))
    assert check_property_i_classical(cand).complete


def test_walk_obstruction_adjacent_distinguished():
    cand = GadgetCandidate(build_family("P:1"), 0, 1, build_family("C:5"))
    obs = walk_obstruction(cand)
    assert obs is not None
    assert obs.length == 1 and obs.pair == (0, 0)


def test_walk_obstruction_none_for_prism():
    cand = GadgetCandidate(build_family("cmpl(C:6)"), 0, 1, build_family("K:3"))
    assert walk_obstruction(cand, lmax=12) is None


def test_walk_obstruction_close_candidates_for_c5():
    # any candidate with distinguished distance <= 3 aimed at the 5-cycle is
    # refuted by some walk length
    box = build_family("box(C:5,P:1)")
    c5 = build_family("C:5")
    t = walk_table(box, "auto")
    for y in range(1, box.n):
        if distance(t, 0, y) <= 3:
            cand = GadgetCandidate(box, 0, y, c5)
            assert walk_obstruction(cand) is not None, y


def test_obstruction_never_fires_on_complete_tables():
    for k in (3, 4, 5):
        cand, table = complement_cycle_gadget(k)
        assert table.complete and check_property_i_classical(cand).complete
        assert walk_obstruction(cand) is None


def odd_cycle_distance_bound(c: GadgetCandidate, n: int) -> bool:
    """Necessary condition for a gadget aimed at the (2n+1)-cycle: the
    distinguished vertices must be at distance at least 2n."""
    if not adjacency_equal(c.target, cycle_graph(2 * n + 1)):
        raise ValueError(f"target is not the {2 * n + 1}-cycle")
    return distance(walk_table(c.gadget, "auto"), c.x, c.y) >= 2 * n


def test_odd_cycle_distance_bound():
    c5 = build_family("C:5")
    wide = build_family("box(C:5,P:2)")
    # vertex (a, s) has index 3a + s; pair ((0,0),(2,2)) has distance 2+2
    assert odd_cycle_distance_bound(GadgetCandidate(wide, 0, 2 * 3 + 2, c5), 2)
    narrow = build_family("box(C:5,P:1)")
    for y in range(1, narrow.n):
        assert not odd_cycle_distance_bound(GadgetCandidate(narrow, 0, y, c5), 2)
    prism = build_family("cmpl(C:6)")
    assert odd_cycle_distance_bound(GadgetCandidate(prism, 0, 1, build_family("C:3")), 1)
    with pytest.raises(ValueError, match="cycle"):
        odd_cycle_distance_bound(GadgetCandidate(prism, 0, 1, build_family("K:4")), 1)


def test_complement_cycle_gadget_families():
    g3, _ = complement_cycle_gadget(3)
    assert g3.status == "proven_oracular"
    assert find_isomorphism(g3.gadget, build_family("box(C:3,P:1)")) is not None
    g4, _ = complement_cycle_gadget(4)
    assert g4.gadget.n == 8 and g4.gadget.num_edges == 20
    g5, table = complement_cycle_gadget(5)
    assert len(table.witnesses) == 25
    with pytest.raises(ValueError):
        complement_cycle_gadget(2)


def test_product_transfer_prism_squared():
    g, _ = complement_cycle_gadget(3)
    out, table = product_transfer(g, g)
    assert out.status == "proven_oracular"
    assert out.target.n == 9
    assert table.complete and len(table.witnesses) == 81


def test_product_transfer_nested_power():
    g, _ = complement_cycle_gadget(3)
    squared, _ = product_transfer(g, g)
    cubed, table = product_transfer(g, squared)
    assert cubed.status == "proven_oracular"
    assert cubed.target.n == 27
    assert table.complete and len(table.witnesses) == 27 * 27


def test_product_transfer_status_propagation():
    g, _ = complement_cycle_gadget(3)
    cand = GadgetCandidate(g.gadget, 0, 1, build_family("K:3"), status="candidate")
    out, _ = product_transfer(g, cand)
    assert out.status == "candidate"


@st.composite
def _small_graphs(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def _transfer_inputs(draw):
    """A gadget on 2-6 vertices with an ordered distinguished pair, and two
    targets on 1-4 vertices; most tables are incomplete."""
    gadget = draw(_small_graphs(2, 6))
    x, y = draw(st.permutations(range(gadget.n)))[:2]
    return [GadgetCandidate(gadget, x, y, draw(_small_graphs(1, 4))) for _ in range(2)]


def _assert_same_table(table, fresh):
    assert table == fresh
    assert list(table.witnesses) == list(fresh.witnesses)


@settings(max_examples=150, deadline=None)
@given(_transfer_inputs())
def test_product_table_is_the_fresh_search_of_the_product(cands):
    # a pinned map into the product is a pair of pinned factor maps, and the
    # first one is the pair of first maps
    out, table = product_transfer(*cands)
    _assert_same_table(table, check_property_i_classical(out))


@pytest.mark.parametrize("gadget, x, y, t1, t2", [
    ("cmpl(C:8)", 0, 1, "K:4", "K:4"), ("C:9", 0, 4, "C:9", "K:3"),
    ("box(C:5,P:4)", 0, 4, "C:5", "C:5"), ("dprime", 0, 3, "K:3", "K:2"),
    ("cmpl(C:6)", 1, 0, "K:3", "C:5")])
def test_product_table_is_the_fresh_search_on_families(gadget, x, y, t1, t2):
    g = build_family(gadget)
    out, table = product_transfer(GadgetCandidate(g, x, y, build_family(t1)),
                                  GadgetCandidate(g, x, y, build_family(t2)))
    _assert_same_table(table, check_property_i_classical(out))


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_complement_cycle_table_is_the_fresh_search(k):
    cand, table = complement_cycle_gadget(k)
    _assert_same_table(table, check_property_i_classical(cand))


def test_product_transfer_refuses_a_proven_status_with_an_incomplete_table():
    # K:2 with its two ends distinguished has no map sending both to one colour
    edge = GadgetCandidate(build_family("K:2"), 0, 1, build_family("K:3"),
                           status="proven_oracular")
    with pytest.raises(VerificationFailure, match="incomplete combined table"):
        product_transfer(edge, edge)
    out, table = product_transfer(edge, GadgetCandidate(edge.gadget, 0, 1, edge.target))
    assert out.status == "candidate" and not table.complete


def test_product_transfer_rejects_mismatch():
    g3, _ = complement_cycle_gadget(3)
    g4, _ = complement_cycle_gadget(4)
    with pytest.raises(ValueError, match="same gadget"):
        product_transfer(g3, g4)
    shifted = GadgetCandidate(g3.gadget, 0, 2, build_family("K:3"))
    with pytest.raises(ValueError, match="same gadget"):
        product_transfer(g3, shifted)


def test_oversized_property_i_tables_are_refused_before_any_search(monkeypatch):
    # a table holds target.n^2 * gadget.n numbers; K:64 x K:64 asked for
    # 16.7M entries, about 10 GB, with nothing to stop it
    def search(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(qgadget.gadget, "_first_homomorphisms", search)
    monkeypatch.setattr(qgadget.gadget, "MAX_TABLE_ENTRIES", 9 * 9 * 2 - 1)
    edge = GadgetCandidate(build_family("K:2"), 0, 1, build_family("K:3"))
    with pytest.raises(ValueError, match="needs 162 numbers, more than 161"):
        product_transfer(edge, edge)
    monkeypatch.setattr(qgadget.gadget, "MAX_TABLE_ENTRIES", 3 * 3 * 2 - 1)
    with pytest.raises(ValueError, match="needs 18 numbers, more than 17"):
        check_property_i_classical(edge)
    monkeypatch.undo()
    monkeypatch.setattr(qgadget.gadget, "MAX_TABLE_ENTRIES", 9 * 9 * 2)
    assert len(product_transfer(edge, edge)[1].witnesses) == 81


def test_splice_two_isolated_vertices():
    h = build_family("cmpl(K:2)")
    out = splice_gadget(h, [(0, 1)], complement_cycle_gadget(3)[0])
    assert out.n == 6 and out.num_edges == 9


def test_splice_empty_pairs_is_identity():
    h = build_family("K:3")
    out = splice_gadget(h, [], complement_cycle_gadget(3)[0])
    assert out.n == 3 and set(out.edges()) == set(h.edges())


def test_splice_k3_single_pair():
    h = build_family("K:3")
    gadget, _ = complement_cycle_gadget(3)
    out = splice_gadget(h, [(0, 1)], gadget)
    # brute-force union oracle: instance edges plus the prism edges relocated
    # onto {0, 1, 3, 4, 5, 6}; the prism's distinguished pair is non-adjacent,
    # so nothing overlaps the instance edge {0,1}
    placement = {0: 0, 1: 1, 2: 3, 3: 4, 4: 5, 5: 6}
    expected = set(h.edges())
    for (u, v) in gadget.gadget.edges():
        e = (placement[u], placement[v])
        expected.add((min(e), max(e)))
    assert out.n == 7
    assert set(out.edges()) == expected
    assert out.num_edges == 12
    # instance restriction is induced: no new edges among original vertices
    for u in range(3):
        for v in range(3):
            assert out.adj[u, v] == h.adj[u, v]


def test_splice_multiple_pairs_and_errors():
    h = build_family("C:4")
    gadget, _ = complement_cycle_gadget(3)
    out = splice_gadget(h, [(0, 2), (1, 3)], gadget)
    assert out.n == 4 + 2 * 4
    with pytest.raises(ValueError):
        splice_gadget(h, [(0, 9)], gadget)
    with pytest.raises(ValueError):
        splice_gadget(h, [(2, 2)], gadget)


def test_disprove_k1_all_distance():
    report = disprove_box_path_gadget(2, 1)
    assert report.all_refuted and report.total_pairs == 45  # C(10,2)
    assert all(c.refutation.kind == "distance" for c in report.classes)


def test_disprove_k3_and_k4():
    for k in (3, 4):
        report = disprove_box_path_gadget(2, k)
        n_vertices = 5 * (k + 1)
        assert report.total_pairs == n_vertices * (n_vertices - 1) // 2
        assert report.all_refuted
        kinds = {c.refutation.kind for c in report.classes}
        assert kinds == {"distance", "noncommuting_witness"}
        for c in report.classes:
            if c.refutation.kind == "noncommuting_witness":
                assert c.refutation.detail["commutator_norm"] > 0
                assert c.refutation.detail["rep_verified"]


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 4), (3, 8), (5, 16)])
def test_disproof_builds_no_box_graph_for_its_label(monkeypatch, n, k):
    # the report names box(C:2n+1,P:k), which is all the whole box graph was
    # built for; the only box graphs left are the domains of verified lifts
    label = box_product(cycle_graph(2 * n + 1), path_graph(k)).label
    built, lifts = [], []
    post_init = Graph.__post_init__

    def counted_graph(g):
        built.append(g.n)
        post_init(g)

    def counted_verify(rep):
        lifts.append(rep.domain.n)
        return verify_rep(rep)

    monkeypatch.setattr(Graph, "__post_init__", counted_graph)
    monkeypatch.setattr(qgadget.gadget, "verify_rep", counted_verify)
    assert disprove_box_path_gadget(n, k).graph_label == label
    box = (2 * n + 1) * (k + 1)
    assert built.count(box) == len(lifts) and set(lifts) <= {box}


def test_disprove_rejects_n1():
    with pytest.raises(ValueError, match="prism"):
        disprove_box_path_gadget(1, 2)


def test_disprove_holds_the_box_to_the_vertex_bound():
    # the box graph is no longer built, and building it was the size check:
    # (2048, 0) has 4,097 vertices and used to run
    with pytest.raises(ValueError, match="vertex count 4097 outside supported range 0..4096"):
        disprove_box_path_gadget(2048, 0)
    assert disprove_box_path_gadget(2047, 0).all_refuted


def test_walk_obstruction_reads_at_most_two_lengths(monkeypatch):
    # one shortest x -> y walk per parity; the first length of each that
    # misses a target pair is the first obstruction
    lengths = []
    reach = qgadget.walks.WalkTable.reach

    def counted_reach(self, length):
        lengths.append(length)
        return reach(self, length)

    monkeypatch.setattr(qgadget.walks.WalkTable, "reach", counted_reach)
    for spec, x, y, target in [("C:5", 0, 1, "C:5"), ("box(C:5,P:4)", 0, 24, "C:5"),
                               ("C:9", 0, 4, "C:5"), ("P:6", 0, 6, "K:2"),
                               ("cmpl(C:8)", 0, 1, "K:4")]:
        lengths.clear()
        walk_obstruction(GadgetCandidate(build_family(spec), x, y, build_family(target)))
        assert len(lengths) <= 2 and lengths == sorted(set(lengths)), spec


# the rep-pipeline benchmark's prism shapes, and two beyond them
DISPROOF_SHAPES = [(2, 4), (2, 8), (3, 8), (3, 12), (4, 12), (5, 16), (6, 20), (7, 14)]


@pytest.mark.parametrize("n,k", DISPROOF_SHAPES)
def test_every_split_holds_the_pair_lifts_witness_entries(n, k):
    # a witness pair (s0, t0) may be refuted by the lift of any split x in
    # [s0, t0 - 2]: its two witness entries and its commutator norm are
    # those of the pair's own lift, bit for bit
    m = 2 * n + 1
    report = disprove_box_path_gadget(n, k)
    splits, pairs = {}, {}

    def lift(memo, s0, t0):
        if (s0, t0) not in memo:
            memo[(s0, t0)] = lift_box_rep(path_to_cycle_rep(k, s0, t0, n), m)
        return memo[(s0, t0)]

    witnesses = [c.refutation.detail for c in report.classes
                 if c.refutation.kind == "noncommuting_witness"]
    assert witnesses
    for detail in witnesses:
        s0, t0 = detail["s0"], detail["t0"]
        u, v = (tuple(p) for p in detail["witness"])
        own = lift(pairs, s0, t0)
        norm = commutator_norm(own, u, v)
        assert detail["commutator_norm"] == norm
        for x in range(s0, t0 - 1):
            split = lift(splits, x, x + 2)
            for w in (u, v):
                assert np.array_equal(split.mats[w], own.mats[w]), (s0, t0, x, w)
            assert commutator_norm(split, u, v) == norm, (s0, t0, x)


@pytest.mark.parametrize("n,k,lifts", [(2, 4, 2), (2, 8, 4), (3, 8, 2), (3, 12, 3),
                                       (4, 12, 2), (5, 16, 2), (6, 20, 2)])
def test_disproof_verifies_one_lift_per_split(monkeypatch, n, k, lifts):
    # greedy interval stabbing over the witness pairs' splits; one lift per
    # distinct path pair would be 4/16/12/30/25/42 on the first six shapes
    checked = []

    def counted(rep):
        checked.append(rep.domain.n)
        return verify_rep(rep)

    monkeypatch.setattr(qgadget.gadget, "verify_rep", counted)
    assert disprove_box_path_gadget(n, k).all_refuted
    assert checked == [(2 * n + 1) * (k + 1)] * lifts


def test_vanished_witness_norm_names_the_pair(monkeypatch):
    # the norms of a split come in one batch, and each is still checked on
    # its own: a norm within the lift's tolerance refuses the disproof and
    # names its pair
    classes = list(enumerate_candidate_classes(2, 4))
    witnessed = [(pair, r.detail["witness"]) for pair, r
                 in zip(classes, refute_candidate_pairs(2, 4, classes))
                 if r.kind == "noncommuting_witness"]
    pair, (u, v) = witnessed[len(witnessed) // 2]
    batched = qgadget.gadget.commutator_norms

    def vanishing(rep, firsts, seconds):
        norms = batched(rep, firsts, seconds)
        norms[(firsts == u).all(axis=1) & (seconds == v).all(axis=1)] = 0.0
        return norms

    monkeypatch.setattr(qgadget.gadget, "commutator_norms", vanishing)
    message = f"witness commutator unexpectedly vanished for pair {pair}"
    with pytest.raises(VerificationFailure, match=re.escape(message)):
        disprove_box_path_gadget(2, 4)


def test_disproof_memory_peak():
    # the classes come from (k+1)^2 (2n+1) triples, not from the pairs, and
    # one verified lift is alive at a time
    disprove_box_path_gadget(5, 16)
    tracemalloc.start()
    try:
        disprove_box_path_gadget(5, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000, peak


def test_failed_split_verification_names_the_split(monkeypatch):
    def failing(rep):
        return VerificationReport(passed=False, oracular=False, max_residual=1.0, violations=())

    monkeypatch.setattr(qgadget.gadget, "verify_rep", failing)
    # in t0 order the first witness pair of C:5 box P:4 is s0 = 0, t0 = 2
    with pytest.raises(VerificationFailure, match=r"split \(x,x\+2\)=\(0,2\)"):
        disprove_box_path_gadget(2, 4)


def test_quotient_generators_are_automorphisms():
    # the reduction quotients by cycle rotation/reflection and path flip;
    # each must preserve adjacency of the box product
    for n, k in ((2, 3), (3, 2)):
        m = 2 * n + 1
        box = build_family(f"box(C:{m},P:{k})")

        def idx(a, s):
            return a * (k + 1) + s

        gens = [lambda a, s: ((a + 1) % m, s),
                lambda a, s: ((-a) % m, s),
                lambda a, s: (a, k - s)]
        for gen in gens:
            for a in range(m):
                for s in range(k + 1):
                    for a2 in range(m):
                        for s2 in range(k + 1):
                            img1, img2 = gen(a, s), gen(a2, s2)
                            assert box.adj[idx(a, s), idx(a2, s2)] == \
                                box.adj[idx(*img1), idx(*img2)]


def canonical_pair(pair, m, k):
    """Least member of an unordered pair's orbit, built pair by pair from the
    rotations and reflections of the cycle and the flip of the path."""
    (a0, s0), (b0, t0) = pair
    images = []
    for s1, t1 in ((s0, t0), (k - s0, k - t0)):
        for a1, b1 in ((a0, b0), ((-a0) % m, (-b0) % m)):
            for rot in range(m):
                p, q = ((a1 + rot) % m, s1), ((b1 + rot) % m, t1)
                images.append((p, q) if p <= q else (q, p))
    return min(images)


def _classes_pair_by_pair(n, k):
    m = 2 * n + 1
    vertices = [(a, s) for a in range(m) for s in range(k + 1)]
    expected = {}
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            rep = canonical_pair((vertices[i], vertices[j]), m, k)
            expected[rep] = expected.get(rep, 0) + 1
    return sorted(expected.items())


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 4), (2, 8), (3, 8), (3, 12), (4, 12),
                                 (5, 16), (6, 20), (7, 14)])
def test_candidate_classes_match_per_pair_canonical_map(n, k):
    assert list(enumerate_candidate_classes(n, k).items()) == _classes_pair_by_pair(n, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 12))
def test_candidate_classes_match_canonical_pairs(n, k):
    assert list(enumerate_candidate_classes(n, k).items()) == _classes_pair_by_pair(n, k)


def test_symmetry_reduction_matches_unreduced():
    # every pair's direct analysis agrees in kind with its class representative
    for k in (1, 2, 3):
        n, m = 2, 5
        classes = enumerate_candidate_classes(n, k)
        outcomes = {rep: refute_candidate_pairs(n, k, [rep])[0].kind for rep in classes}
        vertices = [(a, s) for a in range(m) for s in range(k + 1)]
        total = 0
        for i in range(len(vertices)):
            for j in range(i + 1, len(vertices)):
                pair = (vertices[i], vertices[j])
                rep = canonical_pair(pair, m, k)
                direct = refute_candidate_pairs(n, k, [pair])[0]
                assert direct.kind == outcomes[rep], (pair, rep)
                total += 1
        assert total == sum(classes.values())
