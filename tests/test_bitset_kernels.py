"""The bitmask kernels of ``walks`` and ``endo`` against the loops they replaced.

``girth_bfs`` (a BFS from every root, closing non-tree edges),
``odd_girth_double_cover`` (a double-cover BFS from every root),
``four_cycle_loops`` (four nested neighbour loops),
``first_homomorphisms_backtracking`` (plain backtracking that checks an edge
once both ends are placed), ``dense_walk_table`` (bool matrix products) and
``schmidt_pair_row_scan`` (a scan of every pair of enumerated endomorphisms)
are the earlier implementations of ``walks.girths``,
``walks.is_oracularisable``, the first-hit search of
``endo.enumerate_homomorphisms``, ``walks.walk_table`` and the Schmidt-pair
search of ``endo.find_schmidt_pair`` and ``endo.nogo_verdict``, kept here as
references.
"""

import math
from collections import deque
from itertools import combinations, islice

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import qgadget.endo
from qgadget import (build_family, classical_only_report, endomorphism_rows,
                     enumerate_homomorphisms, find_schmidt_pair, girths, graph_from_edges,
                     is_oracularisable, nogo_verdict, walk_table)
from qgadget.walks import NO_WALK
from conftest import tuples


def girth_bfs(g):
    best = math.inf
    for root in range(g.n):
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for v in g.neighbors(u):
                v = int(v)
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    q.append(v)
        for u, v in g.edges():
            if dist[u] == -1 or dist[v] == -1:
                continue
            if parent[u] == v or parent[v] == u:
                continue
            best = min(best, dist[u] + dist[v] + 1)
    return best


def odd_girth_double_cover(g):
    best = math.inf
    for s in range(g.n):
        dist = {(s, 0): 0}
        q = deque([(s, 0)])
        while q:
            state = q.popleft()
            if state == (s, 1):
                break
            u, par = state
            for w in g.neighbors(u):
                nxt = (int(w), par ^ 1)
                if nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    q.append(nxt)
        best = min(best, dist.get((s, 1), math.inf))
    return best


def four_cycle_loops(g):
    for a in range(g.n):
        for b in g.neighbors(a):
            b = int(b)
            for c in g.neighbors(b):
                c = int(c)
                if c == a:
                    continue
                for d in g.neighbors(c):
                    d = int(d)
                    if d != a and d != b and g.has_edge(d, a):
                        return False, (a, b, c, d, a)
    return True, None


def first_homomorphisms_backtracking(h, g, pins, limit, domains=None):
    """The first `limit` maps h -> g that keep the pins, or, when domains is
    given, that send each vertex u into the bitmask domains[u]."""
    n = h.n
    if n == 0:
        return [()]
    masks = g.nbr_masks
    if domains is None:
        domains = [1 << pins[u] if u in pins else (1 << g.n) - 1 for u in range(n)]
    allowed = list(domains)
    back_nbrs = [[int(v) for v in h.neighbors(u) if v < u] for u in range(n)]
    assigned = [0] * n
    untried = [0] * n
    untried[0] = allowed[0]
    results = []
    u = 0
    while u >= 0:
        cand = untried[u]
        if not cand:
            u -= 1
            continue
        low = cand & -cand
        untried[u] = cand ^ low
        assigned[u] = low.bit_length() - 1
        if u == n - 1:
            results.append(tuple(assigned))
            if len(results) >= limit:
                break
            continue
        u += 1
        cand = allowed[u]
        for v in back_nbrs[u]:
            cand &= masks[assigned[v]]
        untried[u] = cand
    return results


def schmidt_pair_row_scan(g, rows, oracular):
    """(f, g, witness vertices) of the lexicographically first Schmidt pair
    among the lexicographically ordered endomorphism rows, or None.

    ``movers[u]`` has bit i set iff non-identity row i moves u, so OR-ing it
    over f's support (plus its neighbourhood, when oracular) gives every
    partner whose support meets (or touches) f's.  The remaining partners are
    tried in ascending index, for WAC by checking fm[x] ~ hm[y] for every
    neighbour y of x in supp(f) that hm moves."""
    moved = rows != np.arange(g.n)
    keep = moved.any(axis=1)
    rows, moved = rows[keep], moved[keep]
    if not len(rows):
        return None
    which, where = np.nonzero(moved)
    starts = np.searchsorted(which, np.arange(len(rows) + 1)).tolist()
    masks = g.nbr_masks
    movers = [int.from_bytes(col.tobytes(), "little")
              for col in np.packbits(moved.T, axis=1, bitorder="little")]
    everyone = (1 << len(rows)) - 1
    for i in range(len(rows)):
        fm = rows[i].tolist()
        sf = where[starts[i]:starts[i + 1]].tolist()
        reach = set(sf)
        if oracular:
            for x in sf:
                reach.update(v for v in range(g.n) if masks[x] >> v & 1)
        blocked = 0
        for u in reach:
            blocked |= movers[u]
        partners = everyone & ~blocked
        while partners:
            low = partners & -partners
            partners ^= low
            j = low.bit_length() - 1
            hm = rows[j].tolist()
            if oracular or all(masks[fm[x]] >> hm[y] & 1 for x in sf for y in range(g.n)
                               if masks[x] >> y & 1 and hm[y] != y):
                return tuple(fm), tuple(hm), (sf[0], int(where[starts[j]]))
    return None


def dense_walk_table(g):
    """(dist, settled, steps) from bool reach matrices, reach_l = reach_{l-1} @ adj,
    iterated until they repeat with period 2."""
    n = g.n
    dist = np.full((2, n, n), NO_WALK, dtype=np.int32)
    np.fill_diagonal(dist[0], 0)
    settled = steps = 0
    before, last = None, np.eye(n, dtype=bool)
    for ell in range(1, 2 * n + 3):
        cur = last @ g.adj
        steps += 1
        if before is not None and np.array_equal(cur, before):
            break
        new = cur & (dist[ell % 2] == NO_WALK)
        if new.any():
            dist[ell % 2][new] = ell
            settled = ell
        before, last = last, cur
    return dist, settled, steps


@st.composite
def graphs(draw, max_n, max_p=1.0, min_p=0.0):
    """A random graph on at most max_n vertices: several components, each
    a random graph of its own, so isolated vertices and disconnected parts
    both turn up."""
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(min_p, max_p))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
    parts = [range(a, b) for a, b in zip([0] + cuts, cuts + [n])]
    edges = [e for part in parts for e in combinations(part, 2)
             if draw(st.floats(0.0, 1.0)) < p]
    return graph_from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(graphs(14))
def test_girths_match_the_all_roots_searches(g):
    r = girths(g)
    assert r.girth == girth_bfs(g)
    assert r.odd_girth == odd_girth_double_cover(g)
    assert r.odd_walk_girth == r.odd_girth


def test_girths_match_the_all_roots_searches_on_families():
    for spec in ("C:9", "C:12", "O:5", "O:4", "KG:8,3", "box(C:9,P:10)", "P:11",
                 "cmpl(C:10)", "petersen", "box(C:5,P:6)", "tensor(K:3,K:3)", "K:1", "P:0"):
        g = build_family(spec)
        r = girths(g)
        assert (r.girth, r.odd_girth) == (girth_bfs(g), odd_girth_double_cover(g)), spec


@settings(max_examples=300, deadline=None)
@given(graphs(12))
def test_four_cycle_witness_matches_the_nested_loops(g):
    assert is_oracularisable(g) == four_cycle_loops(g)


@st.composite
def _first_hit_instances(draw):
    h, g = draw(graphs(9, 0.6)), draw(graphs(6))
    pins = {}
    if h.n and g.n:
        pins = draw(st.dictionaries(st.integers(0, h.n - 1), st.integers(0, g.n - 1),
                                    max_size=3))
    return h, g, pins, draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(_first_hit_instances())
def test_first_hits_match_plain_backtracking(inst):
    h, g, pins, limit = inst
    assert tuples(enumerate_homomorphisms(h, g, pins=pins, limit=limit)) == \
        first_homomorphisms_backtracking(h, g, pins, limit)


def test_first_hits_match_plain_backtracking_on_families():
    for src, tgt, pins in [("box(C:5,P:4)", "C:5", {0: 0, 4: 2}), ("C:9", "C:9", {0: 0, 4: 3}),
                           ("cmpl(C:12)", "K:6", {0: 1, 1: 2}), ("petersen", "K:3", {}),
                           ("dprime", "K:3", {0: 0, 3: 0}), ("O:3", "C:5", {0: 4})]:
        h, g = build_family(src), build_family(tgt)
        assert tuples(enumerate_homomorphisms(h, g, pins=pins, limit=5)) == \
            first_homomorphisms_backtracking(h, g, pins, 5), (src, tgt)


def _same_walk_table(g):
    t = walk_table(g)
    dist, settled, steps = dense_walk_table(g)
    assert np.array_equal(t.dist, dist)
    assert t.steps == steps
    assert np.array_equal(t.has_neighbour, g.adj.any(axis=1))


@settings(max_examples=300, deadline=None)
@given(graphs(24))
def test_packed_walk_table_matches_the_dense_products(g):
    _same_walk_table(g)


def test_packed_walk_table_matches_the_dense_products_on_multiword_rows():
    # 65-200 vertices, rows of two to four words; the sparser graphs have
    # isolated vertices and fall apart
    rng = np.random.default_rng(7)
    for n in (65, 100, 128, 129, 200):
        for p in (0.5 / n, 2.0 / n, 0.1):
            edges = [e for e in combinations(range(n), 2) if rng.random() < p]
            _same_walk_table(graph_from_edges(n, edges))


# the graphs whose walk tables the gadget-qcore benchmark builds, and K:258
WALK_TABLE_FAMILIES = [f"C:{n}" for n in range(9, 52, 2)] + [
    "O:3", "O:4", "O:5", "KG:8,3", "KG:9,3", "KG:10,3", "box(C:9,P:10)", "K:258", "K:1", "P:0",
    "C:64", "P:63"]


def test_packed_walk_table_matches_the_dense_products_on_families():
    for spec in WALK_TABLE_FAMILIES:
        _same_walk_table(build_family(spec))
    _same_walk_table(graph_from_edges(0, []))


def _swap_is_automorphism(g, a, b):
    perm = np.arange(g.n)
    perm[[a, b]] = [b, a]
    return np.array_equal(g.adj[np.ix_(perm, perm)], g.adj)


def complete_multipartite(sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return graph_from_edges(len(part), [(u, v) for u, v in combinations(range(len(part)), 2)
                                        if part[u] != part[v]])


@st.composite
def twin_targets(draw, max_n=8):
    """A random graph with planted twins: vertices are added one at a time,
    some as copies of an earlier vertex, with (adjacent twin) or without
    (non-adjacent twin) an edge to it."""
    n = draw(st.integers(1, max_n))
    nbrs = [set() for _ in range(n)]
    for v in range(1, n):
        kind = draw(st.sampled_from(["fresh", "open", "closed"]))
        if kind == "fresh":
            new = {u for u in range(v) if draw(st.booleans())}
        else:
            w = draw(st.integers(0, v - 1))
            new = nbrs[w] | ({w} if kind == "closed" else set())
        for u in new:
            nbrs[u].add(v)
        nbrs[v] = new
    return graph_from_edges(n, [(u, v) for v in range(n) for u in nbrs[v] if u < v])


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(9), twin_targets()))
def test_twin_masks_are_the_swaps_that_are_automorphisms(g):
    for a in range(g.n):
        expected = sum(1 << b for b in range(g.n)
                       if b != a and _swap_is_automorphism(g, a, b))
        assert g.twin_masks[a] == expected


@st.composite
def _twin_instances(draw):
    """Pinned first-hit queries into targets with twins, with pins on twin
    values and limits up to 40."""
    g = draw(st.one_of(
        twin_targets(),
        st.integers(1, 6).map(lambda k: build_family(f"K:{k}")),
        st.lists(st.integers(1, 3), min_size=1, max_size=4).map(complete_multipartite)))
    h = draw(graphs(8, 0.6))
    pins = {}
    if h.n:
        twinned = [a for a in range(g.n) if g.twin_masks[a]] or list(range(g.n))
        pins = draw(st.dictionaries(st.integers(0, h.n - 1), st.sampled_from(twinned),
                                    max_size=3))
    return h, g, pins, draw(st.integers(1, 40))


@settings(max_examples=400, deadline=None)
@given(_twin_instances())
def test_twin_skipping_first_hits_match_plain_backtracking(inst):
    h, g, pins, limit = inst
    assert tuples(enumerate_homomorphisms(h, g, pins=pins, limit=limit)) == \
        first_homomorphisms_backtracking(h, g, pins, limit)


def test_twin_skipping_first_hits_match_plain_backtracking_on_families():
    cases = [("cmpl(C:10)", "K:5", {0: 0, 1: 1}), ("cmpl(C:12)", "K:6", {0: 3, 1: 3}),
             ("petersen", "K:3", {0: 2}), ("C:7", "K:3", {0: 1, 3: 1}),
             ("C:9", "cmpl(C:6)", {0: 0}), ("O:3", "tensor(K:2,K:3)", {0: 0, 1: 3}),
             ("box(C:3,P:2)", "K:4", {})]
    for src, tgt, pins in cases:
        h, g = build_family(src), build_family(tgt)
        for limit in (1, 7, 40):
            assert tuples(enumerate_homomorphisms(h, g, pins=pins, limit=limit)) == \
                first_homomorphisms_backtracking(h, g, pins, limit), (src, tgt, limit)
    h, g = build_family("box(P:2,P:2)"), complete_multipartite([2, 3, 1])
    for limit in (1, 13, 40):
        assert tuples(enumerate_homomorphisms(h, g, pins={4: 2}, limit=limit)) == \
            first_homomorphisms_backtracking(h, g, {4: 2}, limit)


def test_twin_skipping_leaves_pin_values_alone():
    # 0 and 1 are adjacent twins of g, and vertex 0 -> 0 has no map while
    # 0 -> 1 has: 1 is the pin value of the later vertex 1, so the swap
    # (0 1) would break that pin.
    h = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert tuples(enumerate_homomorphisms(h, g, pins={1: 1}, limit=28)) == \
        first_homomorphisms_backtracking(h, g, {1: 1}, 28) != []
    # In K:3 vertex 0 -> 0 has no map while 0 -> 1 has: the dead value 0 is
    # itself the pin value of vertex 1, so it rules out none of its twins.
    h = graph_from_edges(6, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5),
                             (4, 5)])
    g = build_family("K:3")
    assert tuples(enumerate_homomorphisms(h, g, pins={1: 0}, limit=13)) == \
        first_homomorphisms_backtracking(h, g, {1: 0}, 13) != []


@st.composite
def _twin_domain_instances(draw):
    """First-hit queries into targets with twins, with an initial domain per
    vertex: the whole target, or any mask of target vertices."""
    g = draw(st.one_of(
        twin_targets(),
        st.integers(1, 6).map(lambda k: build_family(f"K:{k}")),
        st.lists(st.integers(1, 3), min_size=1, max_size=4).map(complete_multipartite)))
    h = draw(graphs(8, 0.6))
    full = (1 << g.n) - 1
    domains = [draw(st.one_of(st.just(full), st.integers(0, full))) for _ in range(h.n)]
    return h, g, domains, draw(st.integers(1, 40))


@settings(max_examples=400, deadline=None)
@given(_twin_domain_instances())
def test_twin_skipping_with_domain_masks_matches_plain_backtracking(inst):
    # a twin swap may only skip values outside every restricted domain
    h, g, domains, limit = inst
    assert list(islice(qgadget.endo._first_homomorphisms(h.neighbour_lists(), g, domains), limit)) == \
        first_homomorphisms_backtracking(h, g, {}, limit, domains)


def test_twin_skipping_with_domain_masks_on_families():
    # K:5 is all twins: a domain {1, 3} on vertex 4 keeps 1 and 3 from
    # being swapped with the others at vertex 0
    cases = [("cmpl(C:10)", "K:5", {4: 0b01010}), ("petersen", "K:3", {0: 0b110, 5: 0b011}),
             ("C:7", "K:3", {3: 0b101}), ("box(C:3,P:2)", "K:4", {2: 0b1100, 7: 0b0110})]
    for src, tgt, restricted in cases:
        h, g = build_family(src), build_family(tgt)
        domains = [restricted.get(u, (1 << g.n) - 1) for u in range(h.n)]
        for limit in (1, 7, 40):
            assert list(islice(qgadget.endo._first_homomorphisms(h.neighbour_lists(), g, domains), limit)) == \
                first_homomorphisms_backtracking(h, g, {}, limit, domains), (src, tgt, limit)


# the graphs of the benchmark's nogo-search workload
NOGO_BATTERY = ["C:9", "C:10", "C:11", "C:12", "P:8", "P:9", "P:10", "P:11", "cmpl(C:8)",
                "cmpl(C:10)", "petersen", "O:3", "K:4", "K:5", "K:6", "tensor(K:3,K:3)",
                "box(C:3,P:2)", "box(C:3,P:3)", "diamond", "dprime"]


def _pair(cert):
    return None if cert is None else (cert.f.mapping, cert.g.mapping, cert.witness_vertices)


def _same_schmidt_pairs(g):
    rows = endomorphism_rows(g)
    disconnected = schmidt_pair_row_scan(g, rows, oracular=True)
    wac = schmidt_pair_row_scan(g, rows, oracular=False)
    assert _pair(find_schmidt_pair(g, oracular=True)) == disconnected
    assert _pair(find_schmidt_pair(g, oracular=False)) == wac
    verdict = nogo_verdict(g)
    assert _pair(verdict.certificate) == (disconnected or wac)
    if verdict.certificate is not None:
        assert verdict.certificate.mode == ("disconnected" if disconnected else "disjoint_wac")
    if g.n:
        assert classical_only_report(g, False).schmidt_pair_found is (wac is not None)


def _at_most_endomorphisms(g, cap):
    count = 0
    for block in qgadget.endo._homomorphism_blocks(g, g, {}):
        count += len(block)
        if count > cap:
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(graphs(10, min_p=0.3))
def test_streamed_schmidt_search_matches_the_row_scan(g):
    # the row scan holds a bitmask over every endomorphism: keep graphs with
    # few of them
    assume(_at_most_endomorphisms(g, 4000))
    _same_schmidt_pairs(g)


def test_streamed_schmidt_search_matches_the_row_scan_on_families():
    for spec in NOGO_BATTERY:
        _same_schmidt_pairs(build_family(spec))
    # the first disconnected partner of f = (0, 1, 1, 0, 4) moves only the
    # pendant vertex 4, the one vertex outside N[supp(f)]
    _same_schmidt_pairs(graph_from_edges(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3)]))
