"""Weighted-algebra defects of finite-dimensional strategies.

A strategy for the graph-morphism game from an instance graph H to a target
graph G consists of one PVM per instance vertex (outcomes = target vertices)
and, for the constraint models, one PVM per directed instance edge (outcomes
= directed target edges), together with a probability weight on the directed
instance edges.  All traces are the normalised matrix trace Tr/dim, the
unique tracial state on a full matrix algebra, which is the only case these
constructions produce.

The vertex PVMs are held as one complex (H.n, G.n, dim, dim) stack, the
layout of a representation's matrices: ``vertex_pvms[u, a]`` is P^u_a.  The
edge PVMs are one stack over directed edges, in ``directed_edges()`` order,
with a bool ``edge_present`` mask of the listed outcomes, like a
representation's ``present``.  The builders and the JSON parser (through
the codec of :mod:`qrep`) fill both and refuse a family for a vertex outside
H, with the wrong number of outcomes, keyed by no directed edge of H, with
an outcome that is no directed edge of G, or with no outcome.  Every defect
validates first: families are checked in batches, in row order, and the
first family that is not a PVM (not hermitian, not idempotent, a
non-orthogonal pair, or a sum other than the identity, in that order; a
NaN residual fails) raises ValueError.

Each defect is the weight-averaged, trace-normed sum of the squared violated
relations of the corresponding weighted algebra:

  assignment:   products P^x_a P^y_b across an edge with (a,b) not an edge,
  c-v:          edge PVM outcomes disagreeing with an endpoint vertex PVM,
  c-c:          outcome pairs of two edge PVMs disagreeing at a shared vertex,
  commutator:   squared trace norms of [P^x_a, P^y_b] over all outcome pairs.

A squared trace norm tau(m* m) is computed as the squared Frobenius norm of
m divided by dim.  A defect of zero over a fully supported weight
characterises perfect (consistent classical, or genuinely quantum)
strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .graphs import Graph, _parse_int, _parse_pair
from .qrep import (DEFAULT_TOL, _check_stack, _complex_stack, _frame, _matrix_json, _read_keys,
                   _residuals)

# numbers per batched temporary in validation and the defects; batches of
# 2^12 numbers and more raised the peak resident memory of a process running
# many defects, and were no faster
_CHUNK = 1 << 10

DirectedEdge = tuple[int, int]


@dataclass(eq=False)
class Strategy:
    """Finite-dimensional strategy data for the H -> G morphism games."""

    instance: Graph
    target: Graph
    dim: int
    vertex_pvms: np.ndarray  # complex, shape (instance.n, target.n, dim, dim)
    dist: dict[DirectedEdge, Fraction]
    # complex, shape (len(instance.directed_edges()), len(target.directed_edges()), dim, dim)
    edge_pvms: Optional[np.ndarray] = None
    edge_present: Optional[np.ndarray] = None  # bool, shape edge_pvms.shape[:2]
    tol: float = DEFAULT_TOL

    def to_json(self) -> dict:
        out = {"instance": self.instance.to_json(), "target": self.target.to_json(),
               "dim": self.dim, "tol": self.tol,
               "vertex_pvms": {str(u): fam for u, fam in enumerate(_matrix_json(self.vertex_pvms))},
               "dist": {f"{x},{y}": f"{w.numerator}/{w.denominator}"
                        for (x, y), w in sorted(self.dist.items())}}
        if self.edge_pvms is not None:
            edges, outcomes = self.instance.directed_edges(), self.target.directed_edges()
            rs, cs = np.nonzero(self.edge_present)
            out["edge_pvms"] = fams = {}
            for r, c, m in zip(rs.tolist(), cs.tolist(), _matrix_json(self.edge_pvms[rs, cs])):
                fams.setdefault("{},{}".format(*edges[r]), {})["{},{}".format(*outcomes[c])] = m
        return out


def _index(g: Graph) -> dict[DirectedEdge, int]:
    """Row (or column) of each directed edge of g in an edge PVM stack."""
    return {e: i for i, e in enumerate(g.directed_edges())}


def _vertex_stack(h: Graph, g: Graph, dim: int, fams) -> np.ndarray:
    """The (h.n, g.n, dim, dim) stack of the (vertex, family) pairs ``fams``,
    each family a list of [re, im] matrices; every instance vertex needs
    exactly one family of g.n elements."""
    stack = np.zeros((h.n, g.n, dim, dim), dtype=complex)
    seen = np.zeros(h.n, dtype=bool)
    for u, fam in fams:
        if not 0 <= u < h.n:
            raise ValueError(f"vertex_pvms key {u} is not an instance vertex (0..{h.n - 1})")
        if len(fam) != g.n:
            raise ValueError(f"vertex {u} PVM has {len(fam)} outcomes, expected {g.n}")
        stack[u] = _complex_stack(fam, dim)
        seen[u] = True
    if not seen.all():
        raise ValueError(f"vertex {int(np.argmin(seen))} has no PVM")
    return stack


def _edge_stack(h: Graph, g: Graph, dim: int, fams) -> tuple[np.ndarray, np.ndarray]:
    """The edge PVM stack of the (edge, {outcome: matrix}) pairs ``fams``,
    matrices as [re, im] lists, and the mask of the listed outcomes.  An
    edge must be a directed edge of h, an outcome one of g, and a family
    must list an outcome; the stack is bounded like the vertex stack."""
    rows, cols = _index(h), _index(g)
    _check_stack(len(rows), len(cols), dim)
    rs, cs, mats = [], [], []
    for (x, y), fam in fams:
        if (x, y) not in rows:
            raise ValueError(f"edge_pvms key {x},{y} is not a directed edge of the instance")
        if not fam:
            raise ValueError(f"edge_pvms key {x},{y} lists no outcome")
        for a, b in fam:
            if (a, b) not in cols:
                raise ValueError(f"edge_pvms key {x},{y}: outcome key {a},{b} is not a "
                                 "directed edge of the target")
            rs.append(rows[x, y])
            cs.append(cols[a, b])
        mats += fam.values()
    stack = np.zeros((len(rows), len(cols), dim, dim), dtype=complex)
    present = np.zeros((len(rows), len(cols)), dtype=bool)
    stack[rs, cs] = _complex_stack(mats, dim)
    present[rs, cs] = True
    return stack, present


def strategy_from_json(obj: dict) -> Strategy:
    """Inverse of :meth:`Strategy.to_json`; raises ValueError on a malformed
    document, or on one whose vertex or edge stack would exceed
    MAX_STACK_ENTRIES numbers."""
    try:
        inst, targ, dim, tol = _frame(obj, "instance", "target")
        fams = obj["vertex_pvms"]
        vertex_pvms = _vertex_stack(inst, targ, dim, zip(
            _read_keys(fams, "vertex_pvms key", _parse_int), fams.values()))
        dist = {}
        weights: dict = {}  # each distinct weight value is parsed once
        for edge, val in zip(_read_keys(obj["dist"], "dist key"), obj["dist"].values()):
            try:
                w = weights[val]
            except (KeyError, TypeError):
                # an unhashable value raises Fraction's own error here
                w = weights[val] = Fraction(val)
            dist[edge] = w
        edge_pvms = edge_present = None
        if (fams := obj.get("edge_pvms")) is not None:
            edge_pvms, edge_present = _edge_stack(inst, targ, dim, zip(
                _read_keys(fams, "edge_pvms key"),
                (dict(zip(_read_keys(fam, "outcome key"), fam.values()))
                 for fam in fams.values())))
    except KeyError as exc:
        raise ValueError(f"strategy document lacks field {exc}") from None
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from None
    return Strategy(inst, targ, dim, vertex_pvms, dist, edge_pvms, edge_present, tol)


def _edge_pair(key: str, what: str) -> tuple[DirectedEdge, DirectedEdge]:
    left, bar, right = key.partition("|")
    if not bar:
        raise ValueError(f"{what} {key!r} is not of the form 'x,y|x2,y2'")
    return _parse_pair(left, ",", f"{what} edge"), _parse_pair(right, ",", f"{what} edge")


def pair_dist_from_json(obj) -> dict[tuple[DirectedEdge, DirectedEdge], Fraction]:
    """The pair distribution of :func:`cc_defect` from a ``{"x,y|x2,y2": "p/q"}``
    document; raises ValueError on a malformed document."""
    try:
        pair_dist = {pair: Fraction(val)
                     for pair, val in zip(_read_keys(obj, "pair key", _edge_pair), obj.values())}
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed pair distribution document: {exc}") from None
    return pair_dist


def uniform_edge_dist(h: Graph) -> dict[DirectedEdge, Fraction]:
    """Each undirected edge split into two directed entries of half weight."""
    de = h.directed_edges()
    if not de:
        raise ValueError("instance graph has no edges")
    w = Fraction(1, len(de))
    return {e: w for e in de}


def _chunks(total: int, per_item: int):
    """Slices of range(total) whose items, each of per_item numbers, fill at
    most _CHUNK numbers together (at least one item per slice)."""
    step = max(1, _CHUNK // max(1, per_item))
    return (slice(s, s + step) for s in range(0, total, step))


def _tau_sq(m: np.ndarray) -> np.ndarray:
    """Squared trace norm tau(m* m) of each matrix in a stack."""
    return (m.real ** 2 + m.imag ** 2).sum(axis=(-2, -1)) / m.shape[-1]


def _first_bad_pair(p: np.ndarray, tol: float) -> Optional[tuple[int, int, int]]:
    """(f, i, j) of the first i != j, in row-major order, whose product
    p[f, i] @ p[f, j] exceeds tol, or None.  A pair with an all-zero element
    has product zero (or, beside a non-finite element, one that fails its
    element checks first), so only nonzero elements are multiplied, a batch
    of rows (f, i) at a time."""
    k, d = p.shape[1], p.shape[2]
    nonzero = (p != 0).any(axis=(-2, -1))
    row_f, row_i = np.nonzero(nonzero)
    for r in _chunks(len(row_f), k * d * d):
        f, i = row_f[r], row_i[r]
        partners = nonzero[f]
        partners[np.arange(len(i)), i] = False
        e, j = np.nonzero(partners)
        bad = np.flatnonzero(~(_residuals(p[f[e], i[e]] @ p[f[e], j]) <= tol))
        if len(bad):
            b = bad[0]
            return int(f[e[b]]), int(i[e[b]]), int(j[b])
    return None


def _check_pvms(stack: np.ndarray, rows: np.ndarray, tol: float, label: Callable[[int], str]):
    """Raise ValueError for the first family stack[r], r in ``rows``, that is
    not a PVM: per element hermitian then idempotent, then the pairs (i, j)
    in row-major order, then the sum.  A residual that is not a number
    fails.  ``label(r)`` names family r in the message."""
    k, d = stack.shape[1:3]
    eye = np.eye(d)
    for chunk in _chunks(len(rows), k * d * d):
        p = stack[rows[chunk]]
        # a huge entry overflows and an infinite one gives inf - inf = NaN;
        # both residuals fail quietly, as in qrep.verify_rep
        with np.errstate(invalid="ignore", over="ignore"):
            herm = _residuals(p - p.conj().swapaxes(-1, -2))
            idem = _residuals(p @ p - p)
            bad_sum = ~(_residuals(p.sum(axis=1) - eye) <= tol)
            pair = _first_bad_pair(p, tol)
        bad_el = (~(herm <= tol) | ~(idem <= tol)).any(axis=1)
        bad = np.flatnonzero(bad_el | bad_sum)
        if not len(bad) and pair is None:
            continue
        f = min(int(bad[0]) if len(bad) else len(p), pair[0] if pair else len(p))
        what = label(int(rows[chunk][f]))
        if bad_el[f]:
            i = int(np.argmax(~(herm[f] <= tol) | ~(idem[f] <= tol)))
            check = "hermitian" if not herm[f, i] <= tol else "idempotent"
            raise ValueError(f"{what}: element {i} is not {check}")
        if pair and pair[0] == f:
            raise ValueError(f"{what}: elements {pair[1]} and {pair[2]} are not orthogonal")
        raise ValueError(f"{what}: family does not sum to the identity")


def validate_strategy(s: Strategy, need_edge_pvms: bool = False):
    shape = (s.instance.n, s.target.n, s.dim, s.dim)
    if np.shape(s.vertex_pvms) != shape:
        raise ValueError(f"vertex PVM stack has shape {np.shape(s.vertex_pvms)}, "
                         f"expected {shape}")
    _check_pvms(s.vertex_pvms, np.arange(s.instance.n), s.tol, lambda u: f"vertex {u} PVM")
    row = _index(s.instance)
    total = Fraction(0)
    for (x, y), w in s.dist.items():
        if (x, y) not in row:
            raise ValueError(f"dist key ({x},{y}) is not a directed edge of the instance")
        if w < 0:
            raise ValueError("dist weights must be nonnegative")
        total += w
    if total != 1:
        raise ValueError(f"dist weights sum to {total}, expected 1")
    if need_edge_pvms:
        if s.edge_pvms is None:
            raise ValueError("strategy has no edge PVMs")
        listed = s.edge_present.any(axis=1)
        for (x, y), w in s.dist.items():
            if w != 0 and not listed[row[x, y]]:
                raise ValueError(f"edge ({x},{y}) has weight but no PVM")
        _check_pvms(s.edge_pvms, np.flatnonzero(listed), s.tol,
                    lambda r: "edge ({},{}) PVM".format(*list(row)[r]))


# ---------------------------------------------------------------------------
# Defects


def _weighted_sum(s: Strategy, terms) -> float:
    """sum of dist(e) * terms[i] over the weighted edges e in sorted order."""
    out = 0.0
    for w, term in zip((w for _, w in sorted(s.dist.items()) if w != 0), terms):
        out += float(w) * float(term)
    return out


def assignment_defect(s: Strategy) -> float:
    """Weighted squared-violation total of the assignment relations.

    For each directed edge (x, y) and each target pair (a, b) that is not a
    directed target edge, the violated monomial is P^x_a P^y_b with squared
    trace norm tau(P^y_b P^x_a P^y_b) = tau(P^x_a (P^y_b)^2).  Summed over b,
    the edge's term is sum_a tau(P^x_a N^y_a) with N^y_a the sum of
    (P^y_b)^2 over the b with (a, b) not an edge, formed once per vertex.
    """
    validate_strategy(s)
    p = s.vertex_pvms
    n, k, d = p.shape[:3]
    bad_pairs = (~s.target.adj).astype(float)  # includes a == b
    # N transposed, so that tau(A N) is the sum of A * N^T's entries over dim
    nt = np.empty_like(p)
    for c in _chunks(n, k * d * d):
        sq = (p[c] @ p[c]).reshape(-1, k, d * d)
        nt[c] = (bad_pairs @ sq).reshape(-1, k, d, d).swapaxes(-1, -2)
    weighted = [e for e, w in sorted(s.dist.items()) if w != 0]
    xs, ys = np.array(weighted, dtype=np.intp).reshape(-1, 2).T
    terms = np.empty(len(xs))
    for c in _chunks(len(xs), k * d * d):
        terms[c] = np.einsum("eajk,eajk->e", p[xs[c]], nt[ys[c]]).real / d
    return _weighted_sum(s, terms)


def cv_defect(s: Strategy) -> float:
    """Constraint-variable defect: edge outcomes disagreeing with an endpoint.

    Each directed edge (x, y) contributes, for both endpoint slots, the
    squared trace norm of Phi^{(x,y)}_{(a,b)} (1 - P^{endpoint}_{outcome}),
    weighted by dist(x,y)/2.
    """
    validate_strategy(s, need_edge_pvms=True)
    row = _index(s.instance)
    weighted = np.array([e for e, w in sorted(s.dist.items()) if w != 0], dtype=np.intp)
    rows = np.array([row[x, y] for x, y in weighted.tolist()], dtype=np.intp)
    f, c = np.nonzero(s.edge_present[rows])
    outcomes = np.array(s.target.directed_edges(), dtype=np.intp).reshape(-1, 2)
    # listed outcome (a, b) of edge (x, y) is scored at slot (x, a), then at (y, b)
    rs, cs = np.repeat(rows[f], 2), np.repeat(c, 2)
    us, vs = weighted[f].ravel(), outcomes[c].ravel()
    norms, eye = np.empty(len(us)), np.eye(s.dim)
    for k in _chunks(len(us), 3 * s.dim * s.dim):
        norms[k] = _tau_sq(s.edge_pvms[rs[k], cs[k]] @ (eye - s.vertex_pvms[us[k], vs[k]]))
    # every weighted edge lists an outcome, so each edge's slots start a run
    starts = 2 * np.searchsorted(f, np.arange(len(rows)))
    return _weighted_sum(s, np.add.reduceat(norms, starts) / 2.0)


def cc_defect(s: Strategy, pair_dist: dict[tuple[DirectedEdge, DirectedEdge], Fraction]) -> float:
    """Constraint-constraint defect: products of two edge-PVM outcomes that
    disagree at a shared instance vertex, weighted by pair_dist."""
    validate_strategy(s, need_edge_pvms=True)
    row, listed = _index(s.instance), s.edge_present.any(axis=1)
    total = Fraction(0)
    for (e1, e2), w in pair_dist.items():
        if e1 not in row or e2 not in row:
            raise ValueError(f"pair_dist key ({e1},{e2}) is not a pair of directed edges")
        if w < 0:
            raise ValueError("pair_dist weights must be nonnegative")
        for x, y in (e1, e2):
            if w != 0 and not listed[row[x, y]]:
                raise ValueError(f"pair_dist edge ({x},{y}) has weight but no PVM")
        total += w
    if total != 1:
        raise ValueError(f"pair_dist weights sum to {total}, expected 1")
    outcomes = np.array(s.target.directed_edges(), dtype=np.intp).reshape(-1, 2)
    out = 0.0
    for (e1, e2), w in sorted(pair_dist.items()):
        if w == 0:
            continue
        shared = [(i, j) for i in range(2) for j in range(2) if e1[i] == e2[j]]
        if not shared:
            continue
        r1, r2 = row[e1], row[e2]
        c1, c2 = np.flatnonzero(s.edge_present[r1]), np.flatnonzero(s.edge_present[r2])
        disagree = np.zeros((len(c1), len(c2)), dtype=bool)
        for i, j in shared:
            disagree |= outcomes[c1, i, None] != outcomes[None, c2, j]
        i1, i2 = np.nonzero(disagree)
        term = 0.0
        for c in _chunks(len(i1), 3 * s.dim * s.dim):
            term += float(_tau_sq(s.edge_pvms[r1, c1[i1[c]]] @ s.edge_pvms[r2, c2[i2[c]]]).sum())
        out += float(w) * term
    return out


def commutator_defect(s: Strategy, x: int, y: int) -> float:
    """Sum of squared trace norms of [P^x_a, P^y_b] over all outcome pairs."""
    for v in (x, y):
        if not 0 <= v < s.instance.n:
            raise ValueError(f"vertex {v} is not an instance vertex (0..{s.instance.n - 1})")
    validate_strategy(s)
    px, py = s.vertex_pvms[x], s.vertex_pvms[y]
    a, b = np.divmod(np.arange(s.target.n ** 2), s.target.n)
    out = 0.0
    for c in _chunks(len(a), 4 * s.dim * s.dim):
        pa, pb = px[a[c]], py[b[c]]
        out += float(_tau_sq(pa @ pb - pb @ pa).sum())
    return out


# ---------------------------------------------------------------------------
# Builders used by analyses and tests


def classical_strategy(h: Graph, g: Graph, assignment: Sequence[int],
                       dist: Optional[dict[DirectedEdge, Fraction]] = None,
                       with_edge_pvms: bool = False) -> Strategy:
    """Dimension-1 strategy from a vertex assignment (not necessarily a
    homomorphism).  Edge PVMs, when requested, are the products of the vertex
    assignments and exist only when the assignment preserves every weighted
    edge -- i.e. for consistent classical strategies."""
    assignment = tuple(int(a) for a in assignment)
    if len(assignment) != h.n:
        raise ValueError("assignment length does not match the instance size")
    if not all(0 <= a < g.n for a in assignment):
        raise ValueError("assignment value out of range for the target")
    vertex_pvms = np.zeros((h.n, g.n, 1, 1), dtype=complex)
    vertex_pvms[np.arange(h.n), np.array(assignment, dtype=np.intp)] = 1.0
    dist = dist if dist is not None else uniform_edge_dist(h)
    edge_pvms = edge_present = None
    if with_edge_pvms:
        fams = []
        for (x, y) in h.directed_edges():
            img = (assignment[x], assignment[y])
            if not g.has_edge(*img):
                raise ValueError(f"assignment maps edge ({x},{y}) to non-edge {img}; "
                                 "no consistent edge PVM exists")
            fams.append(((x, y), {img: [[[1.0, 0.0]]]}))
        edge_pvms, edge_present = _edge_stack(h, g, 1, fams)
    return Strategy(h, g, 1, vertex_pvms, dist, edge_pvms, edge_present)


def strategy_from_vertex_pvms(h: Graph, g: Graph, dim: int,
                              pvms: dict[int, Sequence[np.ndarray]],
                              dist: Optional[dict[DirectedEdge, Fraction]] = None) -> Strategy:
    """Strategy from one family of g.n matrices per instance vertex, with the
    uniform edge weight unless ``dist`` is given."""
    fams = ((u, [_matrix_json(m) for m in fam]) for u, fam in pvms.items())
    return Strategy(h, g, dim, _vertex_stack(h, g, dim, fams),
                    dist if dist is not None else uniform_edge_dist(h))
