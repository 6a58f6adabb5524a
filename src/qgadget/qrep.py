"""Finite-dimensional quantum graph homomorphisms as explicit complex matrices.

A representation assigns to each (domain vertex, codomain vertex) pair a
complex projection matrix.  It is held as one (domain.n, codomain.n, dim, dim)
complex stack, zero where no entry is listed, plus a boolean mask of the
listed entries.  The defining relations checked by :func:`verify_rep` are

  * every present matrix is a self-adjoint idempotent,
  * every domain vertex's row sums to the identity (a PVM),
  * adjacent domain vertices never map onto non-adjacent (or equal)
    codomain vertices: those products vanish,

and, in oracular mode, matrices on adjacent domain vertices commute outright.
Violations are reported with residuals rather than raised, since checking a
candidate is an analysis, not an error.  All constructions in this module are
exact in exact arithmetic, so the default tolerance is a strict 1e-9.

The stack is checked in batches; dimensions in practice never exceed 16.

It owns the document codec that :mod:`defect` shares: _frame, _complex_stack,
_matrix_json and _read_keys, with keys read by graphs._parse_pair.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import (Graph, _parse_pair, adjacency_equal, box_product, complete_graph,
                     cycle_graph, graph_from_json, path_graph)
from .endo import Endomorphism, VerificationFailure, is_wac, support, supports_disjoint

DEFAULT_TOL = 1e-9
# largest stack (domain.n * codomain.n * dim * dim numbers) a document may ask for
MAX_STACK_ENTRIES = 1 << 22
# numbers per batched temporary in verify_rep's pair checks
_BATCH = 1 << 20

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
KETPLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
KETMINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-1 projection onto a unit vector."""
    v = np.asarray(vec, dtype=complex)
    return np.outer(v, v.conj())


@dataclass(eq=False)
class QuantumRep:
    """``mats[u, v]`` is the matrix at (u in domain, v in codomain), zero
    unless ``present[u, v]`` lists it.  Treat instances as immutable."""

    domain: Graph
    codomain: Graph
    dim: int
    mats: np.ndarray     # complex, shape (domain.n, codomain.n, dim, dim)
    present: np.ndarray  # bool, shape (domain.n, codomain.n)
    tol: float = DEFAULT_TOL

    def entry(self, u: int, v: int) -> np.ndarray:
        return self.mats[u, v]

    def to_json(self) -> dict:
        us, vs = np.nonzero(self.present)
        mats = {f"{u},{v}": m for u, v, m in zip(us, vs, _matrix_json(self.mats[us, vs]))}
        return {"domain": self.domain.to_json(), "codomain": self.codomain.to_json(),
                "dim": self.dim, "tol": self.tol, "mats": mats}


def _nonzero_rep(domain: Graph, codomain: Graph, mats: np.ndarray,
                 tol: float = DEFAULT_TOL) -> QuantumRep:
    """A constructed representation lists exactly its nonzero entries."""
    return QuantumRep(domain, codomain, mats.shape[2], mats, _residuals(mats) > 0.0, tol)


def _matrix_json(m) -> list:
    """Complex matrices as nested lists ending in [re, im] pairs, the layout
    of every matrix in a document."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def _complex_array(data) -> np.ndarray:
    """Nested lists ending in [re, im] pairs as one complex array, read
    through a single float array; TypeError on ragged nesting, on an element
    that is not a number or on a last axis that is not a pair."""
    try:
        a = np.asarray(data)
    except ValueError:
        a = None
    if a is None or a.dtype.kind not in "biuf" or a.shape[-1:] != (2,):
        raise TypeError("matrix entries must be [re, im] pairs of numbers, "
                        "in rows of equal length")
    return a.astype(float, copy=False).view(complex)[..., 0]


def _complex_stack(data, dim: int) -> np.ndarray:
    """A list of [re, im] matrices as one (len(data), dim, dim) complex array.
    Matrix by matrix only if they do not stack, to name the first bad one:
    TypeError as in _complex_array, ValueError on a matrix of another shape."""
    try:
        stack = _complex_array(data)
        if stack.shape[1:] == (dim, dim):
            return stack
    except TypeError:
        pass
    stack = np.zeros((len(data), dim, dim), dtype=complex)
    for i, m in enumerate(data):
        m = _complex_array(m)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix has shape {m.shape}, expected ({dim},{dim})")
        stack[i] = m
    return stack


def _check_stack(rows: int, cols: int, dim: int) -> None:
    """Refuse a (rows, cols, dim, dim) stack of more than MAX_STACK_ENTRIES
    numbers, before anything of that size is allocated."""
    size = rows * cols * dim * dim
    if size > MAX_STACK_ENTRIES:
        raise ValueError(f"{rows} x {cols} matrices of dimension {dim} need "
                         f"{size} matrix elements, more than {MAX_STACK_ENTRIES}")


def _read_keys(keys, what: str, read=None) -> list:
    """``read(key, what)`` of each key of a document map, in order; by
    default a key is an "a,b" pair.  Two keys may read as the same entry
    ("0,0" and "00,0"), and a map of entries would keep only the last of
    them silently, so that raises ValueError."""
    if read is None:
        entries = [_parse_pair(key, ",", what) for key in keys]
    else:
        entries = [read(key, what) for key in keys]
    if len(set(entries)) < len(entries):
        first: dict = {}
        for key, entry in zip(keys, entries):
            if entry in first:
                raise ValueError(f"{what}s {first[entry]!r} and {key!r} name the same entry "
                                 + str(entry).replace(" ", ""))
            first[entry] = key
    return entries


def _frame(obj, first: str, second: str) -> tuple[Graph, Graph, int, float]:
    """The graphs under ``first`` and ``second``, an integer ``dim`` >= 1 and
    a finite ``tol`` >= 0 of a document, its stack size checked."""
    dim = operator.index(obj["dim"])
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    g1, g2 = graph_from_json(obj[first]), graph_from_json(obj[second])
    _check_stack(g1.n, g2.n, dim)
    tol = obj.get("tol", DEFAULT_TOL)
    if not isinstance(tol, (int, float)) or not 0 <= float(tol) < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    return g1, g2, dim, float(tol)


def rep_from_json(obj: dict) -> QuantumRep:
    """Inverse of :meth:`QuantumRep.to_json`; raises ValueError on a malformed
    document, or on one whose stack would exceed MAX_STACK_ENTRIES numbers."""
    try:
        domain, codomain, dim, tol = _frame(obj, "domain", "codomain")
        stack = _complex_stack(list(obj["mats"].values()), dim)
        mats = np.zeros((domain.n, codomain.n, dim, dim), dtype=complex)
        present = np.zeros((domain.n, codomain.n), dtype=bool)
        for key, (u, v), m in zip(obj["mats"], _read_keys(obj["mats"], "mats key"), stack):
            if not (0 <= u < domain.n and 0 <= v < codomain.n):
                raise ValueError(f"entry key {key} out of range for the stated graphs")
            mats[u, v] = m
            present[u, v] = True
    except KeyError as exc:
        raise ValueError(f"representation document lacks field {exc}") from None
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed representation document: {exc}") from None
    return QuantumRep(domain, codomain, dim, mats, present, tol)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class Violation:
    relation: str
    where: tuple
    residual: float

    def to_json(self) -> dict:
        return {"relation": self.relation, "where": list(self.where), "residual": self.residual}


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    oracular: bool
    max_residual: float
    violations: tuple[Violation, ...]

    def to_json(self) -> dict:
        return {"passed": self.passed, "oracular": self.oracular,
                "max_residual": self.max_residual,
                "violations": [v.to_json() for v in self.violations]}


def _residuals(x: np.ndarray) -> np.ndarray:
    """Max-entry norm of each matrix in a stack."""
    return np.abs(x).max(axis=(-2, -1), initial=0.0)


def _pair_residuals(rep: QuantumRep, edges: np.ndarray, allowed,
                    commutator: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows (u, v, u2, w) and residuals of the products (or commutators) of
    the present entries (u, v), (u2, w) with (u, u2) in ``edges`` and
    ``allowed[v, w]``, in that lexicographic order.  Edges go in chunks whose
    masks and products hold at most _BATCH numbers each."""
    n_cod, dim = rep.codomain.n, rep.dim
    step = max(1, _BATCH // (n_cod * n_cod * dim * dim or 1))
    wheres, residuals = [np.empty((0, 4), dtype=np.intp)], [np.empty(0)]
    for s in range(0, len(edges), step):
        u, u2 = edges[s:s + step].T
        e, v, w = np.nonzero(rep.present[u, :, None] & rep.present[u2, None, :] & allowed)
        a, b = rep.mats[u[e], v], rep.mats[u2[e], w]
        ab = a @ b
        residuals.append(_residuals(ab - b @ a if commutator else ab))
        wheres.append(np.stack([u[e], v, u2[e], w], axis=1))
    return np.concatenate(wheres), np.concatenate(residuals)


def verify_rep(rep: QuantumRep, oracular: bool = False) -> VerificationReport:
    """Check all defining relations; residuals in max-entry norm.

    oracular=True additionally requires matrices on adjacent domain vertices
    to commute.  Nothing is raised: the report carries every violated
    relation together with its worst residual.  A residual that is not a
    number (from a NaN entry) counts as violated.
    """
    tol = rep.tol
    violations: list[Violation] = []
    maxima = []

    def record(relations: tuple[str, ...], where: np.ndarray, residuals: np.ndarray):
        # residuals[i, j] belongs to relations[j] at where[i]; row-major order
        maxima.append(residuals.max(initial=0.0))
        for i, j in np.argwhere(~(residuals <= tol)):
            violations.append(Violation(relations[j], tuple(int(t) for t in where[i]),
                                        float(residuals[i, j])))

    # an infinite entry gives inf - inf = NaN residuals, which fail quietly
    with np.errstate(invalid="ignore", over="ignore"):
        us, vs = np.nonzero(rep.present)
        m = rep.mats[us, vs]
        record(("hermitian", "idempotent"), np.stack([us, vs], axis=1),
               np.stack([_residuals(m - m.conj().swapaxes(1, 2)), _residuals(m @ m - m)],
                        axis=1))
        rows = rep.mats.sum(axis=1) - np.eye(rep.dim)
        record(("row_sum_identity",), np.arange(rep.domain.n)[:, None], _residuals(rows)[:, None])
        adj = rep.domain.adj
        where, res = _pair_residuals(rep, np.argwhere(adj), ~rep.codomain.adj, False)
        record(("adjacency_zero_product",), where, res[:, None])  # ~adj includes v == w
        if oracular:
            where, res = _pair_residuals(rep, np.argwhere(np.triu(adj)), True, True)
            record(("oracular_commutator",), where, res[:, None])
    worst = float(np.max(maxima))
    return VerificationReport(not violations, oracular, worst, tuple(violations))


def commutator_norm(rep: QuantumRep, first: tuple[int, int], second: tuple[int, int]) -> float:
    """Operator 2-norm (largest singular value) of the commutator of two
    entries, computed by numpy's SVD-based matrix norm."""
    a = rep.entry(*first)
    b = rep.entry(*second)
    return float(np.linalg.norm(a @ b - b @ a, 2))


# ---------------------------------------------------------------------------
# Constructions


def classical_rep(h: Graph, g: Graph, mapping: Sequence[int]) -> QuantumRep:
    """Dimension-1 representation of a classical homomorphism h -> g."""
    mapping = tuple(int(a) for a in mapping)
    if len(mapping) != h.n:
        raise ValueError("mapping length does not match domain size")
    for a in mapping:
        if not (0 <= a < g.n):
            raise ValueError(f"mapped value {a} out of range for codomain")
    for u, v in h.edges():
        if not g.has_edge(mapping[u], mapping[v]):
            raise ValueError(f"map does not preserve edge ({u},{v}); not a homomorphism")
    mats = np.zeros((h.n, g.n, 1, 1), dtype=complex)
    mats[np.arange(h.n), np.array(mapping, dtype=np.intp)] = 1.0
    return _nonzero_rep(h, g, mats)


def schmidt_rep(g: Graph, f: Endomorphism, g2: Endomorphism) -> QuantumRep:
    """The 2-dimensional representation attached to a disjoint-support WAC pair.

    Entry at (x, y) is  d(x,y)*(p0+q0-1) + d(f(x),y)*p1 + d(g2(x),y)*q1  with
    p0,p1 the computational-basis projections and q0,q1 the Hadamard-basis
    ones.  With this entry convention a moved point x of f contributes p0 on
    the diagonal and p1 at (x, f(x)); conventions that swap those two labels
    appear elsewhere, and only the noncommutativity of the witness pair is
    asserted here, which holds either way.

    The witness: (x, f(x)) and (y, g2(y)) for moved points x of f and y of
    g2 carry p1 and q1, whose commutator has operator norm 1/2.
    """
    if not adjacency_equal(f.graph, g) or not adjacency_equal(g2.graph, g):
        raise ValueError("endomorphisms do not live on the given graph")
    if not support(f) or not support(g2):
        raise ValueError("both endomorphisms must be non-identity")
    if not supports_disjoint(f, g2):
        raise ValueError("supports must be disjoint")
    if not is_wac(f, g2):
        raise ValueError("endomorphisms must be WAC")
    p0, p1 = projector(KET0), projector(KET1)
    q0, q1 = projector(KETPLUS), projector(KETMINUS)
    x = np.arange(g.n)
    mats = np.zeros((g.n, g.n, 2, 2), dtype=complex)
    # each statement writes one term per row x, so no index repeats within it
    mats[x, x] += p0 + q0 - np.eye(2, dtype=complex)
    mats[x, list(f.mapping)] += p1
    mats[x, list(g2.mapping)] += q1
    return _nonzero_rep(g, g, mats)


def schmidt_witness(f: Endomorphism, g2: Endomorphism) -> tuple[tuple[int, int], tuple[int, int]]:
    """The designated noncommuting entry pair of schmidt_rep(f, g2)."""
    x = min(support(f))
    y = min(support(g2))
    return (x, f.mapping[x]), (y, g2.mapping[y])


def pair_swap_rep(k: int) -> QuantumRep:
    """Dimension-2 endomorphism representation of the complete graph K_k, k >= 4.

    Colours 0,1 are measured in the computational basis and colours 2,3 in
    the Hadamard basis, identity on the rest; entries on the two bases fail
    to commute, so the non-oracular relations hold while the oracular
    commutator check does not.
    """
    if k < 4:
        raise ValueError("pair swap representation needs k >= 4")
    g = complete_graph(k)
    p0, p1 = projector(KET0), projector(KET1)
    q0, q1 = projector(KETPLUS), projector(KETMINUS)
    mats = np.zeros((k, k, 2, 2), dtype=complex)
    mats[[0, 1], [0, 1]] = p0
    mats[[0, 1], [1, 0]] = p1
    mats[[2, 3], [2, 3]] = q0
    mats[[2, 3], [3, 2]] = q1
    rest = np.arange(4, k)
    mats[rest, rest] = np.eye(2, dtype=complex)
    return _nonzero_rep(g, g, mats)


def four_cycle_rep(g: Graph, cycle: tuple[int, int, int, int]) -> QuantumRep:
    """Dimension-4 representation of the edge-to-graph morphisms built on a
    4-cycle (a, b, c, d, a) of the target; the two distinguished entries at
    the domain edge fail to commute, witnessing non-oracularisability."""
    a, b, c, d = cycle
    if len({a, b, c, d}) != 4:
        raise ValueError("cycle vertices must be distinct")
    for (u, v) in ((a, b), (b, c), (c, d), (d, a)):
        if not g.has_edge(u, v):
            raise ValueError(f"({a},{b},{c},{d}) is not a 4-cycle: missing edge ({u},{v})")
    k2 = complete_graph(2)
    kets0 = {a: (KET0, KET0), b: (KET1, KET0), c: (KET0, KET1), d: (KET1, KET1)}
    kets1 = {a: (KET1, KETPLUS), b: (KET0, KETPLUS), c: (KET1, KETMINUS), d: (KET0, KETMINUS)}
    mats = np.zeros((2, g.n, 4, 4), dtype=complex)
    for u, kets in enumerate((kets0, kets1)):
        for v, (l, r) in kets.items():
            mats[u, v] = projector(np.kron(l, r))
    return _nonzero_rep(k2, g, mats)


def compose_reps(r1: QuantumRep, r2: QuantumRep) -> QuantumRep:
    """Composite representation: entry (a, c) is the sum over middle vertices b
    of kron(r1[a,b], r2[b,c]).  Tensor index order is left factor major, which
    makes associativity an exact re-indexing identity."""
    if not adjacency_equal(r1.codomain, r2.domain):
        raise ValueError("codomain of the first representation must equal the domain of the second")
    dim = r1.dim * r2.dim
    _check_stack(r1.domain.n, r2.codomain.n, dim)
    mats = np.einsum("abij,bckl->acikjl", r1.mats, r2.mats)
    return _nonzero_rep(r1.domain, r2.codomain,
                        mats.reshape(r1.domain.n, r2.codomain.n, dim, dim),
                        tol=max(r1.tol, r2.tol))


def path_shift_pair(k: int, s0: int, t0: int) -> tuple[Endomorphism, Endomorphism]:
    """The two shift endomorphisms of the path with k+1 vertices: one pushes
    0..s0 up by two, the other pulls t0..k down by two.  Their supports are
    disconnected whenever t0 >= s0 + 2."""
    if not (0 <= s0 <= k and 0 <= t0 <= k):
        raise ValueError("s0, t0 must be path vertices")
    if t0 < s0 + 2:
        raise ValueError("need t0 >= s0 + 2 for disconnected supports")
    p = path_graph(k)
    f = Endomorphism(p, tuple(s + 2 if s <= s0 else s for s in range(k + 1)))
    g = Endomorphism(p, tuple(s - 2 if s >= t0 else s for s in range(k + 1)))
    return f, g


def path_to_cycle_rep(k: int, s0: int, t0: int, n: int) -> QuantumRep:
    """Dimension-2 representation of the morphisms from the path P_k into the
    odd cycle C_{2n+1}: the Schmidt representation of the two path shifts,
    composed with the classical wrap s -> s mod (2n+1).

    The entries at (s0, s0 mod 2n+1) and (t0, t0 mod 2n+1) are the
    computational- and Hadamard-basis projections, which do not commute.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    f, g = path_shift_pair(k, s0, t0)
    rep = schmidt_rep(f.graph, f, g)
    m = 2 * n + 1
    cyc = cycle_graph(m)
    wrap = classical_rep(f.graph, cyc, [s % m for s in range(k + 1)])
    return compose_reps(rep, wrap)


def lift_box_rep(r: QuantumRep, m: int) -> QuantumRep:
    """Lift a representation of morphisms H -> C_m to one of morphisms
    (C_m box H) -> C_m via entry ((a, s), b) -> entry (s, a+b mod m).

    The box-product vertex (a, s) carries index a*|V(H)| + s, matching
    graphs.box_product(C_m, H).
    """
    cyc = cycle_graph(m)
    if not adjacency_equal(r.codomain, cyc):
        raise ValueError(f"codomain must be the {m}-cycle")
    h = r.domain
    box = box_product(cyc, h)
    a = np.arange(m)
    s = np.arange(h.n)[None, :, None]
    cols = ((a[:, None] + a[None, :]) % m)[:, None, :]  # [a, 1, b] -> a+b mod m
    n = m * h.n
    return QuantumRep(box, cyc, r.dim, r.mats[s, cols].reshape(n, m, r.dim, r.dim),
                      r.present[s, cols].reshape(n, m), tol=r.tol)
