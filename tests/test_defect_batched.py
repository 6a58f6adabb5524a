"""The batched strategy code against per-matrix loop references.

``check_pvm_loop`` and ``validate_loop`` check one matrix (or one matrix
pair) at a time, raising the first failure in the order the library
promises.  The four ``*_loop`` defects sum normalised traces one outcome
(pair) at a time.  Strategies are random: each family splits the basis of a
random unitary (or of the standard basis) among its outcomes, so every
family is an exact PVM up to rounding.  The references read the edge
families from the ``{(x, y): {(a, b): matrix}}`` map they were drawn as;
the strategy under test holds them as the loader's stack.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgadget import (Strategy, assignment_defect, cc_defect, commutator_defect, cv_defect,
                     defect, graph_from_edges, validate_strategy)
from conftest import set_edge_pvms

# batch sizes (numbers per temporary) that split even these small strategies
CHUNKS = st.sampled_from([1, 7, 64, defect._CHUNK])


def normalized_trace(m: np.ndarray) -> float:
    return float(np.trace(m).real) / m.shape[0]


def trace_norm_sq(m: np.ndarray) -> float:
    return normalized_trace(m.conj().T @ m)


def check_pvm_loop(fam, dim, tol, what):
    eye = np.eye(dim, dtype=complex)
    total = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(fam):
        if p.shape != (dim, dim):
            raise ValueError(f"{what}: element {i} has shape {p.shape}")
        if np.max(np.abs(p - p.conj().T)) > tol:
            raise ValueError(f"{what}: element {i} is not hermitian")
        if np.max(np.abs(p @ p - p)) > tol:
            raise ValueError(f"{what}: element {i} is not idempotent")
        total = total + p
    for i, p in enumerate(fam):
        for j, q in enumerate(fam):
            if i != j and np.max(np.abs(p @ q)) > tol:
                raise ValueError(f"{what}: elements {i} and {j} are not orthogonal")
    if np.max(np.abs(total - eye)) > tol:
        raise ValueError(f"{what}: family does not sum to the identity")


def validate_loop(s: Strategy, edge_pvms: dict):
    """The family checks of validate_strategy(s, need_edge_pvms=True), edge
    families in (x, y) order."""
    for u in range(s.instance.n):
        check_pvm_loop(list(s.vertex_pvms[u]), s.dim, s.tol, f"vertex {u} PVM")
    target_edges = s.target.directed_edges()
    for (x, y), fam in sorted(edge_pvms.items()):
        check_pvm_loop([fam.get(e, np.zeros((s.dim, s.dim), dtype=complex))
                        for e in target_edges], s.dim, s.tol, f"edge ({x},{y}) PVM")


def assignment_loop(s: Strategy) -> float:
    bad_pairs = [(a, b) for a in range(s.target.n) for b in range(s.target.n)
                 if not s.target.has_edge(a, b)]
    out = 0.0
    for (x, y), w in sorted(s.dist.items()):
        if w == 0:
            continue
        px, py = s.vertex_pvms[x], s.vertex_pvms[y]
        term = 0.0
        for a, b in bad_pairs:
            term += normalized_trace(py[b] @ px[a] @ py[b])
        out += float(w) * term
    return out


def cv_loop(s: Strategy, edge_pvms: dict) -> float:
    eye = np.eye(s.dim, dtype=complex)
    out = 0.0
    for (x, y), w in sorted(s.dist.items()):
        if w == 0:
            continue
        term = 0.0
        for (a, b), phi in sorted(edge_pvms[(x, y)].items()):
            for endpoint, c in ((x, a), (y, b)):
                term += trace_norm_sq(phi @ (eye - s.vertex_pvms[endpoint][c]))
        out += float(w) / 2.0 * term
    return out


def cc_loop(s: Strategy, edge_pvms: dict, pair_dist) -> float:
    out = 0.0
    for (e1, e2), w in sorted(pair_dist.items()):
        if w == 0:
            continue
        shared = [(i, j) for i in range(2) for j in range(2) if e1[i] == e2[j]]
        if not shared:
            continue
        term = 0.0
        for b1, phi1 in sorted(edge_pvms[e1].items()):
            for b2, phi2 in sorted(edge_pvms[e2].items()):
                if any(b1[i] != b2[j] for i, j in shared):
                    term += trace_norm_sq(phi1 @ phi2)
        out += float(w) * term
    return out


def commutator_loop(s: Strategy, x: int, y: int) -> float:
    px, py = s.vertex_pvms[x], s.vertex_pvms[y]
    out = 0.0
    for a in range(s.target.n):
        for b in range(s.target.n):
            out += trace_norm_sq(px[a] @ py[b] - py[b] @ px[a])
    return out


@st.composite
def graphs(draw, min_n, max_n, min_edges=0):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges))
    return graph_from_edges(n, edges)


def _pvm(draw, rng, dim, k):
    """k projections summing to the identity: the columns of a random unitary
    (or of the identity) dealt to k outcomes."""
    q = np.eye(dim, dtype=complex)
    if draw(st.booleans()):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    fam = np.zeros((k, dim, dim), dtype=complex)
    for i in range(dim):
        a = draw(st.integers(0, k - 1))
        fam[a] += np.outer(q[:, i], q[:, i].conj())
    return fam


@st.composite
def strategies(draw):
    """A strategy with random vertex and edge PVMs and random rational weights
    on the directed instance edges (some of them zero), and its edge PVMs as
    a map."""
    h = draw(graphs(2, 5, min_edges=1))
    g = draw(graphs(2, 5, min_edges=1))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vertex_pvms = np.stack([_pvm(draw, rng, dim, g.n) for _ in range(h.n)])
    target_edges = g.directed_edges()
    edge_pvms = {}
    for e in h.directed_edges():
        fam = _pvm(draw, rng, dim, len(target_edges))
        edge_pvms[e] = {t: m for t, m in zip(target_edges, fam) if draw(st.booleans())
                        or np.any(m)}
    directed = h.directed_edges()
    raw = draw(st.lists(st.integers(0, 5), min_size=len(directed), max_size=len(directed))
               .filter(any))
    dist = {e: Fraction(r, sum(raw)) for e, r in zip(directed, raw)}
    s = Strategy(h, g, dim, vertex_pvms, dist)
    set_edge_pvms(s, edge_pvms)
    return s, edge_pvms


@settings(max_examples=150, deadline=None)
@given(strategies(), CHUNKS, st.data())
def test_defects_match_loop_references(drawn, chunk, data):
    s, edge_pvms = drawn
    directed = s.instance.directed_edges()
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(directed), st.sampled_from(directed)),
                               min_size=1, unique=True))
    weights = data.draw(st.lists(st.integers(0, 3), min_size=len(pairs),
                                 max_size=len(pairs)).filter(any))
    pair_dist = {p: Fraction(w, sum(weights)) for p, w in zip(pairs, weights)}
    x = data.draw(st.integers(0, s.instance.n - 1))
    y = data.draw(st.integers(0, s.instance.n - 1))
    with mock.patch.object(defect, "_CHUNK", chunk):
        validate_strategy(s, need_edge_pvms=True)
        assert abs(assignment_defect(s) - assignment_loop(s)) <= 1e-12
        assert abs(cv_defect(s) - cv_loop(s, edge_pvms)) <= 1e-12
        assert abs(cc_defect(s, pair_dist) - cc_loop(s, edge_pvms, pair_dist)) <= 1e-12
        assert abs(commutator_defect(s, x, y) - commutator_loop(s, x, y)) <= 1e-12


def _mutate(fam: np.ndarray, kind: str, i: int, j: int, rng) -> None:
    """Break family ``fam`` (k, d, d) in place at element i (and j)."""
    d = fam.shape[-1]
    if kind == "hermitian":
        fam[i, 0, d - 1] += 1e-3j if d == 1 else 1e-3
    elif kind == "idempotent":
        fam[i] += 1e-3 * np.eye(d)
    elif kind == "orthogonal":
        fam[j] = fam[i]
    elif kind == "sum":
        fam[i] = 0.0
    else:  # noise of a random scale, which may break any check or none
        scale = rng.choice([1e-12, 1e-8, 1e-3])
        fam[i] += scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


MESSAGES = {"hermitian": "is not hermitian", "idempotent": "is not idempotent",
            "orthogonal": "are not orthogonal", "sum": "does not sum to the identity"}


def _first_error(check, s):
    try:
        check(s)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(strategies(), st.sampled_from(["hermitian", "idempotent", "orthogonal", "sum", "noise"]),
       st.booleans(), CHUNKS, st.data())
def test_single_element_mutants_raise_the_reference_error(drawn, kind, on_edge, chunk, data):
    s, edge_pvms = drawn
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if on_edge:
        e = data.draw(st.sampled_from(sorted(edge_pvms)))
        target_edges = s.target.directed_edges()
        fam = np.array([edge_pvms[e].get(t, np.zeros((s.dim, s.dim), dtype=complex))
                        for t in target_edges])
    else:
        u = data.draw(st.integers(0, s.instance.n - 1))
        fam = s.vertex_pvms[u]
    nonzero = [i for i in range(len(fam)) if np.any(fam[i])]
    i = data.draw(st.sampled_from(nonzero))
    j = data.draw(st.sampled_from([t for t in range(len(fam)) if t != i]))
    _mutate(fam, kind, i, j, rng)
    if on_edge:
        edge_pvms[e] = {t: m for t, m in zip(target_edges, fam)
                        if np.any(m) or t in edge_pvms[e]}
        set_edge_pvms(s, edge_pvms)
    want = _first_error(lambda s: validate_loop(s, edge_pvms), s)
    if kind != "noise":
        assert MESSAGES[kind] in want
    with mock.patch.object(defect, "_CHUNK", chunk):
        got = _first_error(lambda s: validate_strategy(s, need_edge_pvms=True), s)
    assert got == want


def test_validation_chunks_keep_the_first_failure():
    """Families that span several batches of the default size."""
    n_fam, k, dim = 3, 40, 4
    h = graph_from_edges(n_fam, [(u, u + 1) for u in range(n_fam - 1)])
    g = graph_from_edges(k, [(0, 1)])
    pvms = np.zeros((n_fam, k, dim, dim), dtype=complex)
    pvms[:, 0] = np.eye(dim)
    s = Strategy(h, g, dim, pvms, {e: Fraction(1, 2 * (n_fam - 1))
                                   for e in h.directed_edges()})
    validate_strategy(s)
    s.vertex_pvms[n_fam - 1, k - 1] = s.vertex_pvms[n_fam - 1, 0]
    with pytest.raises(ValueError, match=f"vertex {n_fam - 1} PVM: elements 0 and {k - 1} "
                                         "are not orthogonal"):
        validate_strategy(s)
