"""The bitmask kernels of ``walks`` and ``endo`` against the loops they replaced.

``girth_bfs`` (a BFS from every root, closing non-tree edges),
``odd_girth_double_cover`` (a double-cover BFS from every root),
``four_cycle_loops`` (four nested neighbour loops) and
``first_homomorphisms_backtracking`` (plain backtracking that checks an edge
once both ends are placed) are the earlier implementations of
``walks.girths``, ``walks.is_oracularisable`` and the first-hit search of
``endo.enumerate_homomorphisms``, kept here as references.
"""

import math
from collections import deque
from itertools import combinations

from hypothesis import given, settings, strategies as st

from qgadget import (build_family, enumerate_homomorphisms, girths, graph_from_edges,
                     is_oracularisable)


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
