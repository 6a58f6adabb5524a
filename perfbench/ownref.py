"""Reference implementations the benchmark checks the program against.

Nothing here imports qgadget.  Each function re-derives a fact the program
reports by a different code path: graphs from the family names, homomorphisms
by bitmask backtracking, walks by bool-dtype matrix powers or a BFS on the
bipartite double cover, representations as stacked arrays, defects from
closed forms.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from itertools import combinations

import numpy as np

INF = math.inf


# ---------------------------------------------------------------------------
# Graphs, as symmetric bool adjacency matrices


def edges_to_adj(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    return a


def _kneser(n, k):
    subsets = [frozenset(c) for c in combinations(range(n), k)]
    return np.array([[not (s & t) for t in subsets] for s in subsets], dtype=bool)


def _split_top(body):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def family_adj(spec: str) -> np.ndarray:
    """Adjacency of a family descriptor, built from the textbook definitions."""
    s = spec.strip()
    for name in ("cmpl", "box", "tensor"):
        if s.startswith(name + "("):
            args = [family_adj(p) for p in _split_top(s[len(name) + 1:-1])]
            if name == "cmpl":
                a = args[0]
                return ~a & ~np.eye(len(a), dtype=bool)
            g, h = args
            eg, eh = np.eye(len(g), dtype=bool), np.eye(len(h), dtype=bool)
            if name == "box":
                return np.kron(g, eh) | np.kron(eg, h)
            return np.kron(g, h)
    if s == "petersen":
        return _kneser(5, 2)
    if s == "diamond":
        return edges_to_adj(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    if s == "dprime":
        return edges_to_adj(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    head, _, tail = s.partition(":")
    if head == "K":
        n = int(tail)
        return ~np.eye(n, dtype=bool)
    if head == "C":
        n = int(tail)
        return edges_to_adj(n, [(i, (i + 1) % n) for i in range(n)])
    if head == "P":
        n = int(tail)
        return edges_to_adj(n + 1, [(i, i + 1) for i in range(n)])
    if head == "KG":
        n, k = (int(t) for t in tail.split(","))
        return _kneser(n, k)
    if head == "O":
        n = int(tail)
        return _kneser(2 * n - 1, n - 1)
    raise ValueError(f"no reference construction for {spec!r}")


def edge_list(adj: np.ndarray) -> list[list[int]]:
    iu, iv = np.nonzero(np.triu(adj))
    return [[int(u), int(v)] for u, v in zip(iu, iv)]


def masks(adj: np.ndarray) -> list[int]:
    """Neighbourhood of each vertex as a Python-int bitmask."""
    return [sum(1 << int(v) for v in np.flatnonzero(row)) for row in adj]


# ---------------------------------------------------------------------------
# Homomorphisms and Schmidt pairs


def homs(h: np.ndarray, g: np.ndarray, pins=None, limit=None) -> list[tuple[int, ...]]:
    """Homomorphisms h -> g in lexicographic order, by bitmask backtracking."""
    pins = pins or {}
    n = len(h)
    gm = masks(g)
    back = [[v for v in range(u) if h[u, v]] for u in range(n)]
    full = (1 << len(g)) - 1
    out: list[tuple[int, ...]] = []
    assign = [0] * n

    def rec(u):
        if u == n:
            out.append(tuple(assign))
            return limit is not None and len(out) >= limit
        cand = (1 << pins[u]) if u in pins else full
        for v in back[u]:
            cand &= gm[assign[v]]
        while cand:
            low = cand & -cand
            cand ^= low
            assign[u] = low.bit_length() - 1
            if rec(u + 1):
                return True
        return False

    rec(0)
    return out


def endos(adj: np.ndarray) -> list[tuple[int, ...]]:
    """Endomorphisms with the identity first, the rest in lexicographic order."""
    ident = tuple(range(len(adj)))
    return [ident] + [m for m in homs(adj, adj) if m != ident]


def support_mask(m) -> int:
    return sum(1 << u for u, a in enumerate(m) if a != u)


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def is_hom(h: np.ndarray, g: np.ndarray, m) -> bool:
    if len(m) != len(h) or not all(0 <= a < len(g) for a in m):
        return False
    iu, iv = np.nonzero(h)
    idx = np.asarray(m)
    return bool(g[idx[iu], idx[iv]].all())


def wac(adj: np.ndarray, f, g) -> bool:
    """Adjacent moved points of f and g map to adjacent points."""
    sf, sg = bits(support_mask(f)), bits(support_mask(g))
    return all(adj[f[x], g[y]] for x in sf for y in sg if adj[x, y])


def has_disconnected_pair(adj: np.ndarray, maps) -> bool:
    """Two non-identity maps whose supports are disjoint with no edge between."""
    nb = masks(adj)
    supports = {support_mask(m) for m in maps} - {0}
    closed = {s: s | union_masks(nb, s) for s in supports}
    return any(not (t & closed[s]) for s in supports for t in supports)


def union_masks(nb, s):
    """Union of the neighbourhood masks of the vertices in mask s."""
    out = 0
    for v in bits(s):
        out |= nb[v]
    return out


def has_wac_pair(adj: np.ndarray, maps) -> bool:
    moved = [(m, support_mask(m)) for m in maps if support_mask(m)]
    return any(not (sf & sg) and wac(adj, f, g) for f, sf in moved for g, sg in moved)


def known_oracular_gadget(label: str):
    """The families with a known oracular gadget, matched on the descriptor."""
    if label.startswith("K:") and int(label[2:]) >= 3:
        return {"gadget": f"cmpl(C:{2 * int(label[2:])})", "x": 0, "y": 1,
                "status": "proven_oracular"}
    if label.startswith("tensor(") and label.endswith(")"):
        left, right = (known_oracular_gadget(p) for p in _split_top(label[7:-1]))
        if left and left == right:
            return left
    return None


# ---------------------------------------------------------------------------
# Walks


def bool_power(adj: np.ndarray, ell: int) -> np.ndarray:
    """adj**ell over the Boolean semiring, by repeated squaring."""
    out = np.eye(len(adj), dtype=bool)
    base = adj.astype(bool)
    while ell:
        if ell & 1:
            out = out @ base
        base = base @ base
        ell >>= 1
    return out


def parity_distances(adj: np.ndarray, source: int) -> list[list[float]]:
    """Shortest even and odd walk lengths from source, by BFS on the
    bipartite double cover; dist[p][v] is INF when no such walk exists."""
    n = len(adj)
    nbrs = [np.flatnonzero(row).tolist() for row in adj]
    dist = [[INF] * n, [INF] * n]
    dist[0][source] = 0
    q = deque([(source, 0)])
    while q:
        u, p = q.popleft()
        for v in nbrs[u]:
            if dist[1 - p][v] == INF:
                dist[1 - p][v] = dist[p][u] + 1
                q.append((v, 1 - p))
    return dist


def has_walk(adj: np.ndarray, pdist, ell: int, u: int, v: int) -> bool:
    """A walk of length ell exists iff the shortest walk of the same parity
    is no longer; a walk can then be padded by going back and forth."""
    d = pdist[ell % 2][v]
    return d <= ell and (d > 0 or ell == 0 or bool(adj[u].any()))


def bfs_distance(pdist, v) -> float:
    return min(pdist[0][v], pdist[1][v])


def odd_girth(adj: np.ndarray) -> float:
    return min((parity_distances(adj, s)[1][s] for s in range(len(adj))), default=INF)


def has_four_cycle(adj: np.ndarray) -> bool:
    """Two distinct vertices with two common neighbours."""
    common = adj.astype(np.int64) @ adj.astype(np.int64)
    np.fill_diagonal(common, 0)
    return bool((common >= 2).any())


def is_bipartite(adj: np.ndarray) -> bool:
    return odd_girth(adj) == INF


# ---------------------------------------------------------------------------
# Representations as stacked arrays


def parse_rep(doc: dict):
    """(domain adj, codomain adj, stacked mats, presence mask) of a rep document."""
    dom = edges_to_adj(doc["domain"]["n"], doc["domain"]["edges"])
    cod = edges_to_adj(doc["codomain"]["n"], doc["codomain"]["edges"])
    d = doc["dim"]
    stack = np.zeros((len(dom), len(cod), d, d), dtype=complex)
    present = np.zeros((len(dom), len(cod)), dtype=bool)
    for key, rows in doc["mats"].items():
        u, v = (int(t) for t in key.split(","))
        arr = np.asarray(rows, dtype=float)
        stack[u, v] = arr[..., 0] + 1j * arr[..., 1]
        present[u, v] = True
    return dom, cod, stack, present


def rep_relations(doc: dict, oracular: bool) -> dict:
    """Worst residual and number of violations per relation, vectorised."""
    dom, cod, r, present = parse_rep(doc)
    tol = doc.get("tol", 1e-9)
    d = r.shape[-1]
    out = {}

    def note(name, residuals):
        residuals = np.asarray(residuals, dtype=float).ravel()
        out[name] = (float(residuals.max()) if residuals.size else 0.0,
                     int((residuals > tol).sum()))

    p = r[present]
    note("hermitian", np.abs(p - p.conj().transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0))
    note("idempotent", np.abs(p @ p - p).max(axis=(1, 2), initial=0.0))
    note("row_sum_identity", np.abs(r.sum(axis=1) - np.eye(d)).max(axis=(1, 2), initial=0.0))
    nonadj = ~cod  # includes the diagonal
    zero, comm = [], []
    iu, iv = np.nonzero(dom)
    for u, u2 in zip(iu, iv):
        prod = np.abs(np.einsum("aij,bjk->abik", r[u], r[u2])).max(axis=(2, 3))
        zero.append(prod[nonadj & np.outer(present[u], present[u2])])
        if oracular and u < u2:
            c = (np.einsum("aij,bjk->abik", r[u], r[u2])
                 - np.einsum("bij,ajk->abik", r[u2], r[u]))
            comm.append(np.abs(c).max(axis=(2, 3))[np.outer(present[u], present[u2])])
    note("adjacency_zero_product", np.concatenate(zero) if zero else [])
    if oracular:
        note("oracular_commutator", np.concatenate(comm) if comm else [])
    return out


def compose(doc1: dict, doc2: dict) -> dict[tuple[int, int], np.ndarray]:
    """Entry (a, c) = sum over b of kron(r1[a, b], r2[b, c]), zero entries dropped."""
    _, _, r1, _ = parse_rep(doc1)
    _, _, r2, _ = parse_rep(doc2)
    d1, d2 = r1.shape[-1], r2.shape[-1]
    out = np.einsum("abij,bckl->acikjl", r1, r2).reshape(r1.shape[0], r2.shape[1],
                                                        d1 * d2, d1 * d2)
    return {(a, c): out[a, c] for a in range(out.shape[0]) for c in range(out.shape[1])
            if np.abs(out[a, c]).max() > 0.0}


def op_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Defects in closed form for dimension-1 strategies


def deterministic_assignment_defect(h, g, sigma) -> Fraction:
    """1 - (fraction of directed edges mapped onto directed edges)."""
    iu, iv = np.nonzero(h)
    bad = sum(1 for x, y in zip(iu, iv) if not g[sigma[x], sigma[y]])
    return Fraction(bad, len(iu))


def deterministic_cv_defect(h, sigma, edge_map) -> Fraction:
    """Half the weight of each endpoint whose edge outcome disagrees with sigma."""
    iu, iv = np.nonzero(h)
    w = Fraction(1, len(iu))
    return sum(w / 2 * ((edge_map[(x, y)][0] != sigma[x]) + (edge_map[(x, y)][1] != sigma[y]))
               for x, y in zip(iu.tolist(), iv.tolist()))


def deterministic_cc_defect(edge_map, pair_dist) -> Fraction:
    """Weight of the edge pairs whose outcomes disagree at a shared vertex."""
    out = Fraction(0)
    for (e1, e2), w in pair_dist.items():
        b1, b2 = edge_map[e1], edge_map[e2]
        if any(e1[i] == e2[j] and b1[i] != b2[j] for i in range(2) for j in range(2)):
            out += w
    return out


def commutator_defect(px: np.ndarray, py: np.ndarray) -> float:
    """Sum over outcome pairs of tau(C* C) with C = [P_a, Q_b], tau = Tr/dim."""
    c = np.einsum("aij,bjk->abik", px, py) - np.einsum("bij,ajk->abik", py, px)
    return float(np.einsum("abij,abij->", c.conj(), c).real) / px.shape[-1]
