"""The bitmask kernels of ``walks`` and ``endo`` against the loops they replaced.

``girth_bfs`` (a BFS from every root, closing non-tree edges),
``odd_girth_double_cover`` (a double-cover BFS from every root),
``four_cycle_loops`` (four nested neighbour loops),
``first_homomorphisms_backtracking`` (plain backtracking that checks an edge
once both ends are placed) and ``dense_walk_table`` (bool matrix products)
are the earlier implementations of ``walks.girths``,
``walks.is_oracularisable``, the first-hit search of
``endo.enumerate_homomorphisms`` and ``walks.walk_table``, kept here as
references.
"""

import math
from collections import deque
from itertools import combinations

import numpy as np
from hypothesis import given, settings, strategies as st

from qgadget import (build_family, enumerate_homomorphisms, girths, graph_from_edges,
                     is_oracularisable, walk_table)
from qgadget.walks import NO_WALK


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


def first_homomorphisms_backtracking(h, g, pins, limit):
    n = h.n
    if n == 0:
        return [()]
    masks = g.nbr_masks
    allowed = [1 << pins[u] if u in pins else (1 << g.n) - 1 for u in range(n)]
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
def graphs(draw, max_n, max_p=1.0):
    """A random graph on at most max_n vertices: several components, each
    a random graph of its own, so isolated vertices and disconnected parts
    both turn up."""
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.0, max_p))
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
    assert enumerate_homomorphisms(h, g, pins=pins, limit=limit) == \
        first_homomorphisms_backtracking(h, g, pins, limit)


def test_first_hits_match_plain_backtracking_on_families():
    for src, tgt, pins in [("box(C:5,P:4)", "C:5", {0: 0, 4: 2}), ("C:9", "C:9", {0: 0, 4: 3}),
                           ("cmpl(C:12)", "K:6", {0: 1, 1: 2}), ("petersen", "K:3", {}),
                           ("dprime", "K:3", {0: 0, 3: 0}), ("O:3", "C:5", {0: 4})]:
        h, g = build_family(src), build_family(tgt)
        assert enumerate_homomorphisms(h, g, pins=pins, limit=5) == \
            first_homomorphisms_backtracking(h, g, pins, 5), (src, tgt)


def _same_walk_table(g):
    t = walk_table(g)
    dist, settled, steps = dense_walk_table(g)
    assert np.array_equal(t.dist, dist)
    assert (t.settled, t.steps) == (settled, steps)
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
    assert enumerate_homomorphisms(h, g, pins=pins, limit=limit) == \
        first_homomorphisms_backtracking(h, g, pins, limit)


def test_twin_skipping_first_hits_match_plain_backtracking_on_families():
    cases = [("cmpl(C:10)", "K:5", {0: 0, 1: 1}), ("cmpl(C:12)", "K:6", {0: 3, 1: 3}),
             ("petersen", "K:3", {0: 2}), ("C:7", "K:3", {0: 1, 3: 1}),
             ("C:9", "cmpl(C:6)", {0: 0}), ("O:3", "tensor(K:2,K:3)", {0: 0, 1: 3}),
             ("box(C:3,P:2)", "K:4", {})]
    for src, tgt, pins in cases:
        h, g = build_family(src), build_family(tgt)
        for limit in (1, 7, 40):
            assert enumerate_homomorphisms(h, g, pins=pins, limit=limit) == \
                first_homomorphisms_backtracking(h, g, pins, limit), (src, tgt, limit)
    h, g = build_family("box(P:2,P:2)"), complete_multipartite([2, 3, 1])
    for limit in (1, 13, 40):
        assert enumerate_homomorphisms(h, g, pins={4: 2}, limit=limit) == \
            first_homomorphisms_backtracking(h, g, {4: 2}, limit)


def test_twin_skipping_leaves_pin_values_alone():
    # 0 and 1 are adjacent twins of g, and vertex 0 -> 0 has no map while
    # 0 -> 1 has: 1 is the pin value of the later vertex 1, so the swap
    # (0 1) would break that pin.
    h = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert enumerate_homomorphisms(h, g, pins={1: 1}, limit=28) == \
        first_homomorphisms_backtracking(h, g, {1: 1}, 28) != []
    # In K:3 vertex 0 -> 0 has no map while 0 -> 1 has: the dead value 0 is
    # itself the pin value of vertex 1, so it rules out none of its twins.
    h = graph_from_edges(6, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (2, 3), (2, 5), (3, 5),
                             (4, 5)])
    g = build_family("K:3")
    assert enumerate_homomorphisms(h, g, pins={1: 0}, limit=13) == \
        first_homomorphisms_backtracking(h, g, {1: 0}, 13) != []
