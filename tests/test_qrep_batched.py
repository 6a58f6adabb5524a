"""The batched representation code against per-entry loop references.

``verify_rep_loop`` is the per-entry algorithm: every relation checked one
matrix (or one matrix pair) at a time over a dict of the present entries, in
the report order the library promises.  ``compose_loop`` and ``lift_loop``
build composites and box lifts entry by entry with ``np.kron`` and plain
index arithmetic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from qgadget import (QuantumRep, compose_reps, cycle_graph, graph_from_edges, lift_box_rep,
                     verify_rep)
from qgadget.qrep import Violation


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def verify_rep_loop(rep: QuantumRep, oracular: bool = False):
    """(passed, max_residual, violations) by explicit loops over entries."""
    mats = {(int(u), int(v)): rep.mats[u, v] for u, v in zip(*np.nonzero(rep.present))}
    tol = rep.tol
    violations = []
    worst = 0.0

    def record(relation, where, residual):
        nonlocal worst
        worst = max(worst, residual)
        if residual > tol:
            violations.append(Violation(relation, where, residual))

    eye = np.eye(rep.dim, dtype=complex)
    for (u, v) in sorted(mats):
        m = mats[(u, v)]
        record("hermitian", (u, v), _maxabs(m - m.conj().T))
        record("idempotent", (u, v), _maxabs(m @ m - m))
    for u in range(rep.domain.n):
        row = sum((mats[(u, v)] for v in range(rep.codomain.n) if (u, v) in mats),
                  start=np.zeros((rep.dim, rep.dim), dtype=complex))
        record("row_sum_identity", (u,), _maxabs(row - eye))
    nonadj = [(v, w) for v in range(rep.codomain.n) for w in range(rep.codomain.n)
              if not rep.codomain.has_edge(v, w)]
    for (u, u2) in rep.domain.directed_edges():
        for (v, w) in nonadj:
            a, b = mats.get((u, v)), mats.get((u2, w))
            if a is not None and b is not None:
                record("adjacency_zero_product", (u, v, u2, w), _maxabs(a @ b))
    if oracular:
        for (u, u2) in rep.domain.edges():
            for v in range(rep.codomain.n):
                for w in range(rep.codomain.n):
                    a, b = mats.get((u, v)), mats.get((u2, w))
                    if a is not None and b is not None:
                        record("oracular_commutator", (u, v, u2, w), _maxabs(a @ b - b @ a))
    return worst <= tol, worst, violations


def compose_loop(r1: QuantumRep, r2: QuantumRep):
    """(present, mats) of the composite, summing np.kron terms per entry."""
    dim = r1.dim * r2.dim
    mats = np.zeros((r1.domain.n, r2.codomain.n, dim, dim), dtype=complex)
    for a in range(r1.domain.n):
        for c in range(r2.codomain.n):
            for b in range(r1.codomain.n):
                if r1.present[a, b] and r2.present[b, c]:
                    mats[a, c] += np.kron(r1.mats[a, b], r2.mats[b, c])
    return np.abs(mats).max(axis=(2, 3), initial=0.0) > 0, mats


def lift_loop(r: QuantumRep, m: int):
    """(present, mats) of the box lift: ((a, s), b) takes entry (s, a+b mod m)."""
    h = r.domain.n
    present = np.zeros((m * h, m), dtype=bool)
    mats = np.zeros((m * h, m, r.dim, r.dim), dtype=complex)
    for a in range(m):
        for s in range(h):
            for b in range(m):
                if r.present[s, (a + b) % m]:
                    present[a * h + s, b] = True
                    mats[a * h + s, b] = r.mats[s, (a + b) % m]
    return present, mats


@st.composite
def graphs(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return graph_from_edges(n, edges)


@st.composite
def reps(draw, domain=None, codomain=None, dim=None):
    """Random PVM rows (a random unitary's basis vectors dealt to codomain
    vertices), then a random present mask and random perturbations, so that
    both passing and failing relations occur."""
    domain = draw(graphs()) if domain is None else domain
    codomain = draw(graphs()) if codomain is None else codomain
    dim = draw(st.integers(1, 3)) if dim is None else dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = np.zeros((domain.n, codomain.n, dim, dim), dtype=complex)
    for u in range(domain.n):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        if draw(st.booleans()):
            q = np.eye(dim)  # exact projectors, so some relations hold exactly
        for i in range(dim):
            v = draw(st.integers(0, codomain.n - 1))
            mats[u, v] += np.outer(q[:, i], q[:, i].conj())
    present = np.abs(mats).max(axis=(2, 3)) > 0
    flips = rng.random(present.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    present ^= flips  # drop listed entries, or list explicit zeros
    mats[~present] = 0.0
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-3, 0.5]))
    hit = present & (rng.random(present.shape) < 0.3)
    noise = rng.normal(size=mats.shape) + 1j * rng.normal(size=mats.shape)
    mats[hit] += scale * noise[hit]
    return QuantumRep(domain, codomain, dim, mats, present)


@settings(max_examples=150, deadline=None)
@given(reps(), st.booleans())
def test_verify_rep_matches_loop_reference(rep, oracular):
    got = verify_rep(rep, oracular=oracular)
    passed, worst, violations = verify_rep_loop(rep, oracular)
    assert got.passed == passed
    assert [(v.relation, v.where) for v in got.violations] == \
        [(v.relation, v.where) for v in violations]
    assert all(abs(a.residual - b.residual) <= 1e-12
               for a, b in zip(got.violations, violations))
    assert abs(got.max_residual - worst) <= 1e-12


@st.composite
def composable_pairs(draw):
    r1 = draw(reps(dim=draw(st.integers(1, 2))))
    r2 = draw(reps(domain=r1.codomain, dim=draw(st.integers(1, 2))))
    return r1, r2


@settings(max_examples=60, deadline=None)
@given(composable_pairs())
def test_compose_reps_matches_kron_loop(pair):
    r1, r2 = pair
    out = compose_reps(r1, r2)
    present, mats = compose_loop(r1, r2)
    assert out.dim == r1.dim * r2.dim
    assert np.array_equal(out.present, present)
    assert np.max(np.abs(out.mats - mats), initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: reps(codomain=cycle_graph(2 * n + 1)).map(lambda r: (r, 2 * n + 1))))
def test_lift_box_rep_matches_triple_loop(case):
    r, m = case
    lifted = lift_box_rep(r, m)
    present, mats = lift_loop(r, m)
    assert lifted.domain.n == m * r.domain.n and lifted.dim == r.dim
    assert np.array_equal(lifted.present, present)
    assert np.array_equal(lifted.mats, mats)
