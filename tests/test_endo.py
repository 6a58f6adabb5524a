"""Endomorphism enumeration, WAC, Schmidt certificates, verdicts."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgadget.endo
import qgadget.qrep
from qgadget.endo import ListingBoundExceeded
from qgadget import (Endomorphism, VerificationFailure, build_family, endomorphism_rows,
                     enumerate_homomorphisms, find_schmidt_pair, graph_from_edges, is_core,
                     is_wac, nogo_verdict, support, supports_disconnected, supports_disjoint,
                     verify_schmidt_certificate)
from conftest import compose, identity, power, tuples


def endomorphisms(g, **kwargs):
    """Every endomorphism of g as an Endomorphism, in lexicographic order."""
    return [Endomorphism(g, m) for m in tuples(endomorphism_rows(g, **kwargs))]


def test_homs_k3_to_k3_are_the_six_permutations():
    rows = enumerate_homomorphisms(build_family("K:3"), build_family("K:3"))
    assert rows.shape == (6, 3) and rows.dtype == np.int8
    maps = tuples(rows)
    assert all(len(set(m)) == 3 for m in maps)
    assert maps == sorted(maps)  # lexicographic order


def test_no_hom_odd_cycle_to_edge():
    for limit in (None, 1):
        rows = enumerate_homomorphisms(build_family("C:5"), build_family("K:2"), limit=limit)
        assert rows.shape == (0, 5) and rows.dtype == np.int8


def test_prism_pins_all_nine():
    prism = build_family("cmpl(C:6)")
    k3 = build_family("K:3")
    for a in range(3):
        for b in range(3):
            found = enumerate_homomorphisms(prism, k3, pins={0: a, 1: b}, limit=1)
            assert found.shape == (1, 6), (a, b)
            m = found[0]
            assert m[0] == a and m[1] == b


def test_pins_out_of_range():
    with pytest.raises(ValueError):
        enumerate_homomorphisms(build_family("K:2"), build_family("K:2"), pins={5: 0})
    with pytest.raises(ValueError):
        enumerate_homomorphisms(build_family("K:2"), build_family("K:2"), pins={0: 9})


def test_limit_returns_lexicographic_prefix():
    g = build_family("cmpl(K:3)")
    all_maps = enumerate_homomorphisms(g, g)
    assert len(all_maps) == 27
    assert np.array_equal(enumerate_homomorphisms(g, g, limit=5), all_maps[:5])


@st.composite
def _hom_instances(draw):
    """A random source graph on <= 5 vertices, a random target on <= 4, random
    pins and an optional limit."""
    def graph(max_n):
        n = draw(st.integers(0, max_n))
        pairs = list(combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])
    h, g = graph(5), graph(4)
    pins = {}
    if h.n and g.n:
        pins = draw(st.dictionaries(st.integers(0, h.n - 1), st.integers(0, g.n - 1),
                                    max_size=2))
    limit = draw(st.none() | st.integers(1, 6))
    return h, g, pins, limit


@settings(max_examples=300, deadline=None)
@given(_hom_instances())
def test_homomorphisms_match_bruteforce_product(inst):
    # oracle: filter every vertex map, in itertools.product (lexicographic)
    # order; tiny blocks make the level search split and stack its frontier
    h, g, pins, limit = inst
    expected = [m for m in product(range(g.n), repeat=h.n)
                if all(m[u] == a for u, a in pins.items())
                and all(g.has_edge(m[u], m[v]) for u, v in h.edges())]
    if limit is not None:
        expected = expected[:limit]
    for block in (1, 2, 3, 1024):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qgadget.endo, "_BLOCK", block)
            rows = enumerate_homomorphisms(h, g, pins=pins, limit=limit)
            assert rows.shape == (len(expected), h.n), block
            assert tuples(rows) == expected, block


def test_level_search_uses_int16_above_127_target_vertices():
    # vertex indices up to 129 do not fit int8; every directed edge of C:130
    # is one map of K:2, in lexicographic order
    # in both modes
    c130 = build_family("C:130")
    rows = enumerate_homomorphisms(build_family("K:2"), c130)
    assert rows.dtype == np.int16
    assert tuples(rows) == c130.directed_edges()
    first = enumerate_homomorphisms(build_family("K:2"), c130, pins={0: 129}, limit=2)
    assert first.dtype == np.int16 and tuples(first) == [(129, 0), (129, 128)]


def test_level_search_memory_stays_bounded():
    # P:16 with a K:4 hung off its last vertex has no map into K:3, but the
    # path alone leaves a frontier of 3 * 2^16 partial maps; expanded as one
    # level that takes tens of MB, in blocks well under a MB
    path = [(i, i + 1) for i in range(16)]
    clique = list(combinations(range(16, 20), 2))
    h = graph_from_edges(20, path + clique)
    tracemalloc.start()
    try:
        maps = enumerate_homomorphisms(h, build_family("K:3"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (0, 20)
    assert peak < 4 * 2 ** 20, peak


def test_connected_order():
    order = qgadget.endo._connected_order
    for spec in ("C:9", "P:7", "K:5", "C:12"):
        g = build_family(spec)
        assert order(g) == list(range(g.n)), spec
    # most placed neighbours first, then higher degree, then lower index
    assert order(graph_from_edges(12, [(0, 11)])) == [0, 11] + list(range(1, 11))
    assert order(graph_from_edges(6, [(0, 2), (3, 4), (4, 5)])) == [0, 2, 4, 3, 5, 1]
    assert order(graph_from_edges(0, [])) == []


@st.composite
def _switch_instances(draw):
    """A random instance graph on <= 9 vertices (isolated vertices and
    several components included), a target on <= 5 vertices or the instance
    itself, random pins, and a budget and a cap small enough to switch after
    some rows are yielded and to force the fallback."""
    def graph(max_n):
        n = draw(st.integers(0, max_n))
        pairs = list(combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return graph_from_edges(n, [p for p, k in zip(pairs, keep) if k])
    h = graph(9)
    g = h if draw(st.booleans()) else graph(5)
    pins = {}
    if h.n and g.n:
        pins = draw(st.dictionaries(st.integers(0, h.n - 1), st.integers(0, g.n - 1),
                                    max_size=2))
    return h, g, pins, draw(st.integers(0, 64)), draw(st.integers(0, 64))


@settings(max_examples=150, deadline=None)
@given(_switch_instances())
def test_switched_enumeration_matches_the_natural_order(inst):
    # the natural-order stream, never switched, is the reference; blocks of
    # 2 rows make the small budgets switch mid-stream
    h, g, pins, budget, cap = inst
    most = 2000

    def run(budget, cap=qgadget.endo._ORDER_CAP, block=qgadget.endo._BLOCK, max_maps=most):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qgadget.endo, "_SWITCH_BUDGET", budget)
            mp.setattr(qgadget.endo, "_ORDER_CAP", cap)
            mp.setattr(qgadget.endo, "_BLOCK", block)
            try:
                rows = enumerate_homomorphisms(h, g, pins=pins, max_maps=max_maps)
            except ListingBoundExceeded as exc:
                return str(exc), None
            certs = None
            if h is g:
                found = qgadget.endo._schmidt_certificates(
                    g, qgadget.endo._checked_blocks(g, g, {}), (True, False))
                certs = [c.to_json() for c in found]
            return tuples(rows), certs

    expected = run(2 ** 62)
    for args in ((0,), (budget, qgadget.endo._ORDER_CAP, 2), (0, cap, 2), (budget, cap, 2)):
        assert run(*args) == expected, args
    if isinstance(expected[0], list):
        # the bound trips at the same count through the switch
        count = len(expected[0])
        assert run(0, max_maps=count)[0] == expected[0]
        if count:
            assert run(0, max_maps=count - 1)[0] == f"more than {count - 1} homomorphisms"


def _spy_ordered_rows(monkeypatch) -> list:
    """Record what each call of the ordered search returned."""
    results = []
    search = qgadget.endo._ordered_rows

    def spied(*args):
        results.append(search(*args))
        return results[-1]

    monkeypatch.setattr(qgadget.endo, "_ordered_rows", spied)
    return results


def test_switch_after_rows_were_yielded(monkeypatch):
    # blocks of 4 rows and a budget of 1000 partial rows: Petersen's natural
    # stream has given 4 maps when the ordered rows replace it
    g = build_family("petersen")
    expected = tuples(endomorphism_rows(g))
    got, calls = [], []
    search = qgadget.endo._ordered_rows

    def spied(*args):
        calls.append(len(got))
        return search(*args)

    monkeypatch.setattr(qgadget.endo, "_ordered_rows", spied)
    monkeypatch.setattr(qgadget.endo, "_BLOCK", 4)
    monkeypatch.setattr(qgadget.endo, "_SWITCH_BUDGET", 1000)
    for block in qgadget.endo._homomorphism_blocks(g, g, {}):
        got += tuples(block)
    assert calls == [4] and got == expected


def test_dense_scans_switch_and_sparse_streams_do_not(monkeypatch):
    # at the module's own budget and cap
    results = _spy_ordered_rows(monkeypatch)
    assert len(endomorphism_rows(build_family("cmpl(C:10)"))) == 500
    assert len(results) == 1 and len(results[0]) == 500
    # C:12 passes the budget, but its order is the identity
    assert len(endomorphism_rows(build_family("C:12"))) == 11112
    # the stream stops at box(C:3,P:3)'s first pair inside the budget
    assert nogo_verdict(build_family("box(C:3,P:3)")).kind == "no_gadget_at_all"
    assert len(results) == 1


@pytest.mark.parametrize("n, budget", [(12, qgadget.endo._SWITCH_BUDGET), (8, 0)])
def test_switch_memory_stays_bounded(monkeypatch, n, budget):
    # one edge (0, n-1) and n-2 isolated vertices: the connected order is not
    # the identity, and the graph has 2 * n^(n-2) endomorphisms (2 * 12^10
    # for n = 12, 2 * 8^6 rows of 4 MB for n = 8); the ordered search passes
    # its cap and is dropped, and the natural stream stops at the first pair
    g = graph_from_edges(n, [(0, n - 1)])
    results = _spy_ordered_rows(monkeypatch)
    monkeypatch.setattr(qgadget.endo, "_SWITCH_BUDGET", budget)
    tracemalloc.start()
    try:
        verdict = nogo_verdict(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
    assert verdict.kind == "no_gadget_at_all"
    assert [rows is None for rows in results] == [True]


def test_endomorphism_rows_match_the_backtracking_search(endo_battery):
    # a limit no graph here reaches sends the search down the bitmask path
    for g in endo_battery:
        rows = endomorphism_rows(g)
        assert rows.dtype == np.int8
        first = enumerate_homomorphisms(g, g, limit=10 ** 9)
        assert first.dtype == np.int8 and np.array_equal(rows, first), g.label


def test_corrupted_endomorphism_row_is_a_verification_failure(monkeypatch):
    search = qgadget.endo._homomorphism_blocks

    def corrupted(h, g, pins):
        rows = np.concatenate(list(search(h, g, pins)))
        rows[3, 1] = rows[3, 0]  # edge (0, 1) now maps onto a single vertex
        yield rows

    monkeypatch.setattr(qgadget.endo, "_homomorphism_blocks", corrupted)
    # the CLI catches the one class, wherever it is raised from
    assert qgadget.qrep.VerificationFailure is VerificationFailure
    with pytest.raises(VerificationFailure, match="does not preserve edge"):
        endomorphism_rows(build_family("C:5"))
    with pytest.raises(VerificationFailure, match="does not preserve edge"):
        nogo_verdict(build_family("C:5"))
    with pytest.raises(VerificationFailure, match="does not preserve edge"):
        find_schmidt_pair(build_family("C:5"), oracular=False)


def test_check_maps_tests_range_then_pins_then_edges():
    k3 = build_family("K:3")
    check = qgadget.endo._check_maps
    # -1 would index vertex 2, and 3 lies past the end
    with pytest.raises(VerificationFailure, match=r"map \[2, -1, 0\] leaves the target"):
        check(k3, k3, np.array([[0, 1, 2], [2, -1, 0]]), "map", {})
    with pytest.raises(VerificationFailure, match=r"map \[0, 1, 3\] leaves the target"):
        check(k3, k3, np.array([[0, 1, 3]]), "map", {})
    # a pin holds one value for every row, or one per row
    rows = np.array([[0, 1, 2], [1, 0, 2], [1, 1, 2]])
    check(k3, k3, rows[:2], "map", {2: 2, 0: np.array([0, 1])})
    with pytest.raises(VerificationFailure, match=r"map \[1, 0, 2\] misses its pins \(2, 2\)"):
        check(k3, k3, rows, "map", {2: 2, 0: np.array([0, 2, 1])})
    with pytest.raises(VerificationFailure, match=r"\[1, 1, 2\] does not preserve edge \(0,1\)"):
        check(k3, k3, rows, "map", {2: 2})
    check(k3, k3, np.empty((0, 3), dtype=np.int8), "map", {0: 1})


def test_full_listing_stops_above_max_maps():
    # cmpl(K:3) has 27 endomorphisms
    g = build_family("cmpl(K:3)")
    assert len(enumerate_homomorphisms(g, g, max_maps=27)) == 27
    with pytest.raises(ListingBoundExceeded, match="more than 26 homomorphisms"):
        enumerate_homomorphisms(g, g, max_maps=26)
    # a limit asks for the first hits, which the bound does not restrict
    assert len(enumerate_homomorphisms(g, g, limit=27, max_maps=1)) == 27


def test_endos_of_c5_are_the_ten_automorphisms():
    maps = tuples(endomorphism_rows(build_family("C:5")))
    assert len(maps) == 10
    assert all(len(set(m)) == 5 for m in maps)
    assert identity(5) in maps


def test_diamond_contains_named_endomorphisms():
    maps = set(tuples(endomorphism_rows(build_family("diamond"))))
    assert (0, 1, 0, 3) in maps
    assert (2, 1, 2, 3) in maps


def test_edgeless_has_all_maps():
    assert len(endomorphism_rows(build_family("cmpl(K:3)"))) == 27


def test_size_bound_enforced():
    with pytest.raises(ValueError, match="bound"):
        endomorphism_rows(build_family("KG:6,3"))  # 20 vertices
    # explicit override works
    rows = endomorphism_rows(build_family("C:12"), max_vertices=12)
    assert identity(12) in tuples(rows)


def test_support_examples():
    d = build_family("diamond")
    assert support(Endomorphism(d, identity(4))) == frozenset()
    assert support(Endomorphism(d, (0, 1, 0, 3))) == frozenset({2})
    dp = build_family("dprime")
    g = Endomorphism(dp, (0, 5, 4, 3, 4, 5))
    assert support(g) == frozenset({1, 2})


def test_wac_with_identity_always(endo_battery):
    for g in endo_battery[:8]:
        ident = Endomorphism(g, identity(g.n))
        for e in endomorphisms(g):
            assert is_wac(ident, e) and is_wac(e, ident)


def test_wac_reflexive(endo_battery):
    for g in endo_battery:
        for e in endomorphisms(g):
            assert is_wac(e, e)


def test_k4_transpositions_wac():
    k4 = build_family("K:4")
    f = Endomorphism(k4, (1, 0, 2, 3))
    g = Endomorphism(k4, (0, 1, 3, 2))
    assert is_wac(f, g)
    assert supports_disjoint(f, g)
    assert not supports_disconnected(f, g)  # 0 ~ 2 in K_4


def test_diamond_pair_disconnected():
    d = build_family("diamond")
    f = Endomorphism(d, (0, 1, 0, 3))
    g = Endomorphism(d, (2, 1, 2, 3))
    assert supports_disjoint(f, g)
    assert supports_disconnected(f, g)


def test_identity_trivially_disconnected():
    d = build_family("diamond")
    f = Endomorphism(d, (0, 1, 0, 3))
    assert supports_disjoint(f, Endomorphism(d, identity(4)))
    assert supports_disconnected(f, Endomorphism(d, identity(4)))


def test_mismatched_graphs_rejected():
    f = Endomorphism(build_family("K:3"), identity(3))
    g = Endomorphism(build_family("C:4"), identity(4))
    with pytest.raises(ValueError):
        is_wac(f, g)


def test_wac_powers_disjoint_supports(endo_battery):
    # a disjoint-support WAC pair stays WAC under taking powers up to 4
    for g in endo_battery:
        if g.n > 8:
            continue
        endos = endomorphisms(g)
        powers = [[Endomorphism(g, power(e.mapping, i)) for i in range(1, 5)] for e in endos]
        for a, pa in zip(endos, powers):
            for b, pb in zip(endos, powers):
                if not supports_disjoint(a, b) or not is_wac(a, b):
                    continue
                for fa in pa:
                    for fb in pb:
                        assert is_wac(fa, fb), (g.label, a.mapping, b.mapping)


def test_wac_powers_need_disjoint_supports():
    # without disjointness the power property genuinely fails: the rotation
    # of the triangle is WAC with itself, but its square is not WAC with it
    k3 = build_family("K:3")
    rot = Endomorphism(k3, (1, 2, 0))
    assert is_wac(rot, rot)
    assert not is_wac(Endomorphism(k3, power(rot.mapping, 2)), rot)


def test_commuting_disjoint_implies_wac(endo_battery):
    for g in endo_battery:
        if g.n > 8:
            continue
        endos = endomorphisms(g)
        for a in endos:
            for b in endos:
                if supports_disjoint(a, b) and \
                        compose(a.mapping, b.mapping) == compose(b.mapping, a.mapping):
                    assert is_wac(a, b), (g.label, a.mapping, b.mapping)


def test_disconnected_implies_wac(endo_battery):
    for g in endo_battery:
        if g.n > 8:
            continue
        endos = endomorphisms(g)
        for a in endos:
            for b in endos:
                if supports_disconnected(a, b):
                    assert is_wac(a, b), (g.label, a.mapping, b.mapping)


def test_endomorphisms_form_monoid(endo_battery):
    for g in endo_battery:
        if g.n > 8:
            continue
        maps = set(tuples(enumerate_homomorphisms(g, g)))
        assert identity(g.n) in maps
        for a in maps:
            for b in maps:
                assert compose(a, b) in maps, g.label


def test_schmidt_pair_diamond():
    cert = find_schmidt_pair(build_family("diamond"), oracular=True)
    assert cert is not None and cert.mode == "disconnected"
    verify_schmidt_certificate(cert)


def test_schmidt_pair_k4_nonoracular():
    cert = find_schmidt_pair(build_family("K:4"), oracular=False)
    assert cert is not None and cert.mode == "disjoint_wac"
    verify_schmidt_certificate(cert)
    assert find_schmidt_pair(build_family("K:4"), oracular=True) is None


def test_no_schmidt_pair_on_k3():
    assert find_schmidt_pair(build_family("K:3"), oracular=False) is None


def test_certificates_reverify(endo_battery):
    for g in endo_battery:
        if g.n > 8:
            continue
        for oracular in (False, True):
            cert = find_schmidt_pair(g, oracular=oracular)
            if cert is not None:
                verify_schmidt_certificate(cert)


def test_schmidt_pair_is_lexicographically_first(endo_battery):
    # oracle: a plain double loop over the frozenset predicates
    for g in endo_battery:
        endos = [e for e in endomorphisms(g) if support(e)]
        for oracular in (False, True):
            expected = next(((f, h) for f in endos for h in endos
                             if (supports_disconnected(f, h) if oracular else
                                 supports_disjoint(f, h) and is_wac(f, h))), None)
            cert = find_schmidt_pair(g, oracular=oracular)
            if expected is None:
                assert cert is None, (g.label, oracular)
                continue
            f, h = expected
            assert (cert.f.mapping, cert.g.mapping) == (f.mapping, h.mapping), (g.label, oracular)
            assert cert.mode == ("disconnected" if oracular else "disjoint_wac")
            assert cert.witness_vertices == (min(support(f)), min(support(h)))


def test_partner_domains_hold_exactly_the_partners(endo_battery):
    # a map lies in the partner domains of f iff the frozenset predicates
    # accept the pair.  In the six-vertex graph, f = (5, 2, 2, 3, 3, 5) moves
    # 0 and 4, both next to 2, and h = (0, 1, 1, 4, 4, 0) sends 2 into N(5)
    # but not into N(3): every moved neighbour of 2 has to count
    six = graph_from_edges(6, [(0, 1), (0, 2), (0, 4), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
                               (3, 5), (4, 5)])
    assert not is_wac(Endomorphism(six, (5, 2, 2, 3, 3, 5)), Endomorphism(six, (0, 1, 1, 4, 4, 0)))
    for g in endo_battery + [build_family("cmpl(C:8)"), six]:
        endos = endomorphisms(g)
        if len(endos) > 150:
            continue
        for f in endos:
            if not support(f):
                continue
            sf = sorted(support(f))
            for oracular in (False, True):
                dom = qgadget.endo._partner_domains(g, list(f.mapping), sf, oracular)
                for h in endos:
                    inside = all(dom[y] >> h.mapping[y] & 1 for y in range(g.n))
                    expected = (supports_disconnected(f, h) if oracular else
                                supports_disjoint(f, h) and is_wac(f, h))
                    assert inside == expected, (g.label, f.mapping, h.mapping, oracular)


@pytest.mark.parametrize("spec", ["K:4", "C:5", "diamond"])
def test_nogo_verdict_enumerates_once(monkeypatch, spec):
    calls = []
    search = qgadget.endo._homomorphism_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(qgadget.endo, "_homomorphism_blocks", counted)
    nogo_verdict(build_family(spec))
    assert len(calls) == 1


def test_p30_certificate_above_the_default_bound():
    # 31 vertices: the first fold f = (0, 1, 0, 1, ...) moves 2..30, and the
    # first partner of it moves vertex 0 only, onto 2
    p30 = build_family("P:30")
    with pytest.raises(ValueError, match="bound 12"):
        find_schmidt_pair(p30, oracular=True)
    fold = tuple(i % 2 for i in range(31))
    partner = (2,) + tuple(range(1, 31))
    for oracular in (True, False):
        cert = find_schmidt_pair(p30, oracular=oracular, max_vertices=31)
        assert (cert.f.mapping, cert.g.mapping, cert.witness_vertices) == (fold, partner, (2, 0))
        assert cert.mode == ("disconnected" if oracular else "disjoint_wac")
    v = nogo_verdict(p30, max_vertices=31)
    assert v.kind == "no_gadget_at_all"
    assert (v.certificate.f.mapping, v.certificate.g.mapping) == (fold, partner)


def test_tampered_certificate_rejected():
    cert = find_schmidt_pair(build_family("diamond"), oracular=True)
    from dataclasses import replace
    broken = replace(cert, witness_vertices=(0, 0))
    with pytest.raises(ValueError):
        verify_schmidt_certificate(broken)
    broken = replace(cert, g=cert.f)
    with pytest.raises(ValueError):
        verify_schmidt_certificate(broken)


def test_is_core_examples():
    assert is_core(build_family("C:7"))
    assert not is_core(build_family("diamond"))
    for k in (2, 3, 4, 5):
        assert is_core(build_family(f"K:{k}"))


def test_nogo_verdicts():
    v = nogo_verdict(build_family("diamond"))
    assert v.kind == "no_gadget_at_all"
    verify_schmidt_certificate(v.certificate)

    v = nogo_verdict(build_family("K:4"))
    assert v.kind == "no_nonoracular_gadget"
    assert v.certificate.mode == "disjoint_wac"
    assert v.known_gadget == {"gadget": "cmpl(C:8)", "x": 0, "y": 1,
                              "status": "proven_oracular"}

    v = nogo_verdict(build_family("C:5"))
    assert v.kind == "unknown" and v.certificate is None

    v = nogo_verdict(build_family("K:3"))
    assert v.kind == "known_gadget"
    assert v.known_gadget["gadget"] == "cmpl(C:6)"


def test_known_gadget_for_tensor_power():
    v = nogo_verdict(build_family("tensor(K:3,K:3)"))
    assert v.known_gadget is not None and v.known_gadget["gadget"] == "cmpl(C:6)"
