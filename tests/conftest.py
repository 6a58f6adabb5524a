"""Shared graph batteries and independent oracles for the test suite.

The oracles here deliberately take a different route from the library code
they check: walks are enumerated by explicit DFS instead of matrix powers,
homomorphism existence is decided by backtracking search when checking the
parity shortcut, and by forward checking over vertex sets when checking a
pinned table's misses, operator norms come from numpy's SVD instead of power
iteration, game values are counted directly from the predicate, and graph
isomorphism is decided by plain backtracking.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest

from qgadget import Graph, build_family

# every named family on at most 12 vertices; the workhorse battery
SMALL_FAMILY_SPECS = [
    "K:1", "K:2", "K:3", "K:4", "K:5", "K:6",
    "C:3", "C:4", "C:5", "C:6", "C:7", "C:8", "C:9", "C:10", "C:11", "C:12",
    "P:0", "P:1", "P:2", "P:3", "P:4", "P:5",
    "KG:4,2", "KG:5,2",
    "O:2", "O:3", "petersen", "diamond", "dprime",
    "cmpl(C:6)", "cmpl(C:8)", "cmpl(K:4)", "cmpl(K:1)",
    "box(C:3,P:1)", "box(C:4,P:1)", "box(C:5,P:1)", "box(P:1,P:2)",
    "tensor(K:2,K:2)", "tensor(K:3,K:3)", "tensor(K:2,K:3)",
]

# graphs small enough for exhaustive endomorphism-pair scans
ENDO_BATTERY_SPECS = [
    "K:2", "K:3", "K:4", "K:5",
    "C:3", "C:4", "C:5", "C:6", "C:7", "C:8",
    "P:1", "P:2", "P:3", "P:4",
    "diamond", "dprime", "cmpl(C:6)", "cmpl(K:3)",
    "tensor(K:2,K:2)", "box(C:3,P:1)",
]


@pytest.fixture(scope="session")
def small_family_graphs() -> list[Graph]:
    graphs = [build_family(s) for s in SMALL_FAMILY_SPECS]
    assert all(g.n <= 12 for g in graphs)
    return graphs


@pytest.fixture(scope="session")
def endo_battery() -> list[Graph]:
    return [build_family(s) for s in ENDO_BATTERY_SPECS]


# ---------------------------------------------------------------------------
# Oracles


def walk_exists_dfs(g: Graph, length: int, u: int, v: int) -> bool:
    """Walk existence by explicit depth-first enumeration (oracle)."""
    if length == 0:
        return u == v
    return any(walk_exists_dfs(g, length - 1, int(w), v) for w in g.neighbors(u))


def hom_exists_bruteforce(h: Graph, g: Graph) -> bool:
    """Homomorphism existence by raw search over assignments with pruning."""
    earlier_nbrs = [[w for w in range(u) if h.has_edge(w, u)] for u in range(h.n)]

    def extend(partial: list[int]) -> bool:
        u = len(partial)
        if u == h.n:
            return True
        for a in range(g.n):
            if all(g.has_edge(a, partial[w]) for w in earlier_nbrs[u]):
                partial.append(a)
                if extend(partial):
                    return True
                partial.pop()
        return False

    return extend([])


def hom_exists_forward_checking(h: Graph, g: Graph) -> bool:
    """Homomorphism existence by forward checking over sets of target
    vertices: place the unplaced vertex with the fewest candidates left, then
    cut its unplaced neighbours down to the neighbours of its image."""
    target_nbrs = [set(g.neighbors(a).tolist()) for a in range(g.n)]
    nbrs = [h.neighbors(u).tolist() for u in range(h.n)]

    def extend(domains: dict[int, set[int]]) -> bool:
        if not domains:
            return True
        u = min(domains, key=lambda v: (len(domains[v]), v))
        for a in sorted(domains[u]):
            rest = {v: d for v, d in domains.items() if v != u}
            for v in nbrs[u]:
                if v in rest:
                    rest[v] = rest[v] & target_nbrs[a]
                    if not rest[v]:
                        break
            else:
                if extend(rest):
                    return True
        return False

    return extend({u: set(range(g.n)) for u in range(h.n)})


def operator_norm_svd(m: np.ndarray) -> float:
    """Operator 2-norm via numpy SVD (oracle for the power-iteration route)."""
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def assignment_game_value(h: Graph, g: Graph, assignment) -> float:
    """Uniform-distribution assignment game value of a deterministic strategy,
    counted directly from the predicate (oracle)."""
    directed = h.directed_edges()
    wins = sum(1 for (x, y) in directed if g.has_edge(assignment[x], assignment[y]))
    return wins / len(directed)


def degree(g: Graph, u: int) -> int:
    return int(g.adj[u].sum())


def find_isomorphism(g: Graph, h: Graph) -> Optional[list[int]]:
    """Exhaustive backtracking search for a graph isomorphism g -> h.

    Returns a vertex permutation p with h.adj[p[u], p[v]] == g.adj[u, v],
    or None.  Intended for small graphs (tens of vertices at most).
    """
    if g.n != h.n or g.num_edges != h.num_edges:
        return None
    deg_g = sorted(int(d) for d in g.adj.sum(axis=1))
    deg_h = sorted(int(d) for d in h.adj.sum(axis=1))
    if deg_g != deg_h:
        return None
    n = g.n
    assign: list[int] = []
    used = [False] * n

    def extend(u: int) -> bool:
        if u == n:
            return True
        du = degree(g, u)
        for cand in range(n):
            if used[cand] or degree(h, cand) != du:
                continue
            ok = True
            for v in range(u):
                if g.adj[u, v] != h.adj[cand, assign[v]]:
                    ok = False
                    break
            if ok:
                assign.append(cand)
                used[cand] = True
                if extend(u + 1):
                    return True
                used[cand] = False
                assign.pop()
        return False

    return assign[:] if extend(0) else None
