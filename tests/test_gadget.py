"""Gadget candidates: pin tables, walk obstructions, transfer, splicing, disproof."""

import pytest

import qgadget.gadget
from qgadget import (GadgetCandidate, VerificationFailure, adjacency_equal, build_family,
                     check_property_i_classical, complement_cycle_gadget, cycle_graph,
                     disprove_box_path_gadget, distance, enumerate_candidate_classes,
                     product_transfer, splice_gadget, walk_obstruction, walk_table)
from qgadget.gadget import analyze_candidate_pair
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
    search = qgadget.gadget.enumerate_homomorphisms

    def corrupted(h, g, pins, limit):
        found = search(h, g, pins=pins, limit=limit)
        if pins == {0: 1, 1: 2}:
            m = list(found[0])
            m[field] = m[1]  # prism vertex 3 is adjacent to 1; vertex 0 is pinned
            found[0] = tuple(m)
        return found

    monkeypatch.setattr(qgadget.gadget, "enumerate_homomorphisms", corrupted)
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
        cand = complement_cycle_gadget(k)
        assert check_property_i_classical(cand).complete
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
    g3 = complement_cycle_gadget(3)
    assert g3.status == "proven_oracular"
    assert find_isomorphism(g3.gadget, build_family("box(C:3,P:1)")) is not None
    g4 = complement_cycle_gadget(4)
    assert g4.gadget.n == 8 and g4.gadget.num_edges == 20
    g5 = complement_cycle_gadget(5)
    assert len(check_property_i_classical(g5).witnesses) == 25
    with pytest.raises(ValueError):
        complement_cycle_gadget(2)


def test_product_transfer_prism_squared():
    g = complement_cycle_gadget(3)
    out = product_transfer(g, g)
    assert out.status == "proven_oracular"
    assert out.target.n == 9
    table = check_property_i_classical(out)
    assert table.complete and len(table.witnesses) == 81


def test_product_transfer_nested_power():
    g = complement_cycle_gadget(3)
    squared = product_transfer(g, g)
    cubed = product_transfer(g, squared)
    assert cubed.status == "proven_oracular"
    assert cubed.target.n == 27
    table = check_property_i_classical(cubed)
    assert table.complete and len(table.witnesses) == 27 * 27


def test_product_transfer_status_propagation():
    g = complement_cycle_gadget(3)
    cand = GadgetCandidate(g.gadget, 0, 1, build_family("K:3"), status="candidate")
    out = product_transfer(g, cand)
    assert out.status == "candidate"


def test_product_transfer_rejects_mismatch():
    g3 = complement_cycle_gadget(3)
    g4 = complement_cycle_gadget(4)
    with pytest.raises(ValueError, match="same gadget"):
        product_transfer(g3, g4)
    shifted = GadgetCandidate(g3.gadget, 0, 2, build_family("K:3"))
    with pytest.raises(ValueError, match="same gadget"):
        product_transfer(g3, shifted)


def test_splice_two_isolated_vertices():
    h = build_family("cmpl(K:2)")
    out = splice_gadget(h, [(0, 1)], complement_cycle_gadget(3))
    assert out.n == 6 and out.num_edges == 9


def test_splice_empty_pairs_is_identity():
    h = build_family("K:3")
    out = splice_gadget(h, [], complement_cycle_gadget(3))
    assert out.n == 3 and set(out.edges()) == set(h.edges())


def test_splice_k3_single_pair():
    h = build_family("K:3")
    gadget = complement_cycle_gadget(3)
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
    gadget = complement_cycle_gadget(3)
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


def test_disprove_rejects_n1():
    with pytest.raises(ValueError, match="prism"):
        disprove_box_path_gadget(1, 2)


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


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 4), (2, 8), (3, 8), (3, 12), (4, 12),
                                 (5, 16)])
def test_candidate_classes_match_per_pair_canonical_map(n, k):
    m = 2 * n + 1
    vertices = [(a, s) for a in range(m) for s in range(k + 1)]
    expected = {}
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            rep = canonical_pair((vertices[i], vertices[j]), m, k)
            expected[rep] = expected.get(rep, 0) + 1
    classes = enumerate_candidate_classes(n, k)
    assert list(classes.items()) == sorted(expected.items())


def test_symmetry_reduction_matches_unreduced():
    # every pair's direct analysis agrees in kind with its class representative
    for k in (1, 2, 3):
        n, m = 2, 5
        classes = enumerate_candidate_classes(n, k)
        outcomes = {rep: analyze_candidate_pair(n, k, rep, {}).kind for rep in classes}
        vertices = [(a, s) for a in range(m) for s in range(k + 1)]
        total = 0
        for i in range(len(vertices)):
            for j in range(i + 1, len(vertices)):
                pair = (vertices[i], vertices[j])
                rep = canonical_pair(pair, m, k)
                direct = analyze_candidate_pair(n, k, pair, {})
                assert direct.kind == outcomes[rep], (pair, rep)
                total += 1
        assert total == sum(classes.values())
