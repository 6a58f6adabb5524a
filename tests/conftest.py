"""Shared graph batteries and independent oracles for the test suite.

The oracles here deliberately take a different route from the library code
they check: walks are enumerated by explicit DFS instead of matrix powers,
quantum-core certificates are re-checked pair by pair with bool-dtype powers
by repeated squaring instead of one float32 BLAS product per length, and
written as dicts key by key instead of from arrays, homomorphism existence
is decided by backtracking search when checking the parity shortcut, and
by forward checking over vertex sets when checking a pinned table's misses,
operator norms come from numpy's SVD instead of power iteration, game
values are counted directly from the predicate, and graph isomorphism is
decided by plain backtracking.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from qgadget import Graph, Strategy, build_family, pair_swap_rep
from qgadget.cli import main
from qgadget.defect import _edge_stack
from qgadget.qrep import _matrix_json

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


def run_fresh(*argv, stdout=subprocess.PIPE, **run_args) -> subprocess.CompletedProcess:
    """``qgadget *argv`` in a new interpreter, on this checkout's sources;
    stdout is captured unless another file descriptor is given.  Keyword
    arguments go to ``subprocess.run``, over its 60 s timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "qgadget.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env,
                          **{"timeout": 60, **run_args})


def inf_rep_json() -> str:
    """pair_swap_rep(4) as a document whose entry (0,0) holds 1e400, which
    overflows to an infinite float when it is read."""
    doc = json.dumps(pair_swap_rep(4).to_json())
    out = doc.replace('"0,0": [[[1.0,', '"0,0": [[[1e400,', 1)
    assert "1e400" in out
    return out


# the golden corpus: one sha256 per report, written by tests/regen_golden.py
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def golden_digests() -> dict[str, str]:
    """The corpus, keyed by the argv of each report joined by spaces."""
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def normal_report(text: str) -> str:
    """The report with elapsed_seconds written as 0, in JSON or text mode."""
    return re.sub(r'("?elapsed_seconds"?: )[-+0-9.eE]+', r"\g<1>0", text)


def report_sha256(argv) -> str:
    """sha256 of the report ``qgadget *argv`` writes in-process, with
    elapsed_seconds written as 0; the command must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"{' '.join(argv)} exited {code}"
    return hashlib.sha256(normal_report(out.getvalue()).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Maps as tuples


def tuples(rows: np.ndarray) -> list[tuple[int, ...]]:
    """The maps of a ``(count, n)`` row array as tuples, for comparing with
    list oracles and for set membership."""
    return [tuple(r) for r in rows.tolist()]


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The vertex map a after b."""
    return tuple(a[x] for x in b)


def power(f: tuple[int, ...], k: int) -> tuple[int, ...]:
    """f composed with itself k times; the identity for k = 0."""
    out = identity(len(f))
    for _ in range(k):
        out = compose(f, out)
    return out


# ---------------------------------------------------------------------------
# Oracles


def walk_exists_dfs(g: Graph, length: int, u: int, v: int) -> bool:
    """Walk existence by explicit depth-first enumeration (oracle)."""
    if length == 0:
        return u == v
    return any(walk_exists_dfs(g, length - 1, int(w), v) for w in g.neighbors(u))


def bool_power(squares: list[np.ndarray], ell: int) -> np.ndarray:
    """adj^ell in bool dtype by repeated squaring with numpy's bool ``@``,
    which cannot overflow; squares[i] is adj^(2^i) and is extended in place
    as needed (oracle for the verifier's float32 products)."""
    out = None
    bit = 0
    while ell >> bit:
        if bit == len(squares):
            squares.append(squares[-1] @ squares[-1])
        if (ell >> bit) & 1:
            out = squares[bit] if out is None else out @ squares[bit]
        bit += 1
    return np.eye(len(squares[0]), dtype=bool) if out is None else out


def verify_loop(g: Graph, cert) -> Optional[str]:
    """The message of a quantum-core certificate's first failure, pair by
    pair in row-major order, or None when it holds; each recorded length's
    power comes from bool_power, once per distinct length."""
    n_pairs = g.n * (g.n - 1) // 2
    for kind, lengths, want in (("column", cert.column_lengths, n_pairs),
                                ("cross", cert.cross_lengths, n_pairs - g.num_edges)):
        if len(lengths) != want:
            return f"certificate holds {len(lengths)} {kind} lengths for {want} {kind} pairs"
    squares = [g.adj]
    powers: dict = {}

    def walks(ell):
        # (power, some closed walk, some adjacent pair joined) at length ell
        if ell not in powers:
            p = bool_power(squares, ell)
            powers[ell] = p, bool(p.diagonal().any()), bool(p[g.adj].any())
        return powers[ell]

    columns, crosses = iter(cert.column_lengths.tolist()), iter(cert.cross_lengths.tolist())
    for a in range(g.n):
        for b in range(a + 1, g.n):
            ell = next(columns)
            if ell < 0 or not walks(ell)[0][a, b]:
                return f"column pair ({a},{b}): no walk of length {ell}"
            if walks(ell)[1]:
                return f"column pair ({a},{b}): closed walk of length {ell} exists"
            if not g.has_edge(a, b):
                ell = next(crosses)
                if ell < 0 or not walks(ell)[0][a, b]:
                    return f"cross pair ({a},{b}): no walk of length {ell}"
                if walks(ell)[2]:
                    return f"cross pair ({a},{b}): adjacent pair joined at length {ell}"
    return None


def certificate_json(cert) -> dict:
    """A quantum-core certificate as the dict its report holds, built key by
    key in row-major pair order (reference for the array writer)."""
    a, b = np.triu_indices(cert.graph.n, 1)
    keys = [f"{x},{y}" for x, y in zip(a.tolist(), b.tolist())]
    cross = np.flatnonzero(~cert.graph.adj[a, b]).tolist()
    return {"graph": cert.graph.label,
            "column_lengths": dict(zip(keys, cert.column_lengths.tolist(), strict=True)),
            "cross_lengths": dict(zip([keys[i] for i in cross],
                                      cert.cross_lengths.tolist(), strict=True))}


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


def set_edge_pvms(s: Strategy, fams: dict) -> None:
    """Give ``s`` the edge PVMs ``{(x, y): {(a, b): matrix}}``, stacked by
    the loader's own _edge_stack."""
    s.edge_pvms, s.edge_present = _edge_stack(
        s.instance, s.target, s.dim,
        ((e, {t: _matrix_json(m) for t, m in fam.items()}) for e, fam in fams.items()))


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
