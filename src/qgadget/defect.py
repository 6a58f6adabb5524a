"""Weighted-algebra defects of finite-dimensional strategies.

A strategy for the graph-morphism game from an instance graph H to a target
graph G consists of one PVM per instance vertex (outcomes = target vertices)
and, for the constraint models, one PVM per directed instance edge (outcomes
= directed target edges), together with a probability weight on the directed
instance edges.  All traces are the normalised matrix trace Tr/dim, the
unique tracial state on a full matrix algebra, which is the only case these
constructions produce.

Each defect is the weight-averaged, trace-normed sum of the squared violated
relations of the corresponding weighted algebra:

  assignment:   products P^x_a P^y_b across an edge with (a,b) not an edge,
  c-v:          edge PVM outcomes disagreeing with an endpoint vertex PVM,
  c-c:          outcome pairs of two edge PVMs disagreeing at a shared vertex,
  commutator:   squared trace norms of [P^x_a, P^y_b] over all outcome pairs.

A defect of zero over a fully supported weight characterises perfect
(consistent classical, or genuinely quantum) strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, graph_from_json

DEFAULT_TOL = 1e-9

DirectedEdge = tuple[int, int]


def normalized_trace(m: np.ndarray) -> float:
    return float(np.trace(m).real) / m.shape[0]


def trace_norm_sq(m: np.ndarray) -> float:
    """Squared trace norm |m|_tau^2 = tau(m* m)."""
    return normalized_trace(m.conj().T @ m)


@dataclass(eq=False)
class Strategy:
    """Finite-dimensional strategy data for the H -> G morphism games."""

    instance: Graph
    target: Graph
    dim: int
    vertex_pvms: dict[int, list[np.ndarray]]
    dist: dict[DirectedEdge, Fraction]
    edge_pvms: Optional[dict[DirectedEdge, dict[DirectedEdge, np.ndarray]]] = None
    tol: float = DEFAULT_TOL

    def to_json(self) -> dict:
        def mat(m):
            return [[[float(z.real), float(z.imag)] for z in row] for row in m]
        out = {"instance": self.instance.to_json(), "target": self.target.to_json(),
               "dim": self.dim, "tol": self.tol,
               "vertex_pvms": {str(u): [mat(p) for p in fam]
                               for u, fam in sorted(self.vertex_pvms.items())},
               "dist": {f"{x},{y}": f"{w.numerator}/{w.denominator}"
                        for (x, y), w in sorted(self.dist.items())}}
        if self.edge_pvms is not None:
            out["edge_pvms"] = {f"{x},{y}": {f"{a},{b}": mat(m) for (a, b), m in sorted(fam.items())}
                                for (x, y), fam in sorted(self.edge_pvms.items())}
        return out


def _parse_matrix(rows, dim) -> np.ndarray:
    m = np.array([[complex(re, im) for re, im in row] for row in rows])
    if m.shape != (dim, dim):
        raise ValueError(f"matrix has shape {m.shape}, expected ({dim},{dim})")
    return m


def strategy_from_json(obj: dict) -> Strategy:
    """Inverse of :meth:`Strategy.to_json`; raises ValueError on a malformed
    document."""
    try:
        dim = int(obj["dim"])
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        inst, targ = graph_from_json(obj["instance"]), graph_from_json(obj["target"])
        vertex_pvms = {int(u): [_parse_matrix(p, dim) for p in fam]
                       for u, fam in obj["vertex_pvms"].items()}
        dist = {}
        for key, val in obj["dist"].items():
            x, y = (int(t) for t in key.split(","))
            dist[(x, y)] = Fraction(val)
        edge_pvms = None
        if obj.get("edge_pvms") is not None:
            edge_pvms = {}
            for ekey, fam in obj["edge_pvms"].items():
                x, y = (int(t) for t in ekey.split(","))
                edge_pvms[(x, y)] = {}
                for okey, rows in fam.items():
                    a, b = (int(t) for t in okey.split(","))
                    edge_pvms[(x, y)][(a, b)] = _parse_matrix(rows, dim)
        tol = float(obj.get("tol", DEFAULT_TOL))
    except KeyError as exc:
        raise ValueError(f"strategy document lacks field {exc}") from None
    except (TypeError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"malformed strategy document: {exc}") from None
    return Strategy(inst, targ, dim, vertex_pvms, dist, edge_pvms, tol)


def pair_dist_from_json(obj) -> dict[tuple[DirectedEdge, DirectedEdge], Fraction]:
    """The pair distribution of :func:`cc_defect` from a ``{"x,y|x2,y2": "p/q"}``
    document; raises ValueError on a malformed document."""
    try:
        pair_dist = {}
        for key, val in obj.items():
            left, bar, right = key.partition("|")
            if not bar:
                raise ValueError(f"pair key {key!r} is not of the form 'x,y|x2,y2'")
            x, y = (int(t) for t in left.split(","))
            x2, y2 = (int(t) for t in right.split(","))
            pair_dist[((x, y), (x2, y2))] = Fraction(val)
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


def _check_pvm(fam: Sequence[np.ndarray], dim: int, tol: float, what: str):
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


def validate_strategy(s: Strategy, need_edge_pvms: bool = False):
    for u in range(s.instance.n):
        if u not in s.vertex_pvms:
            raise ValueError(f"vertex {u} has no PVM")
        fam = s.vertex_pvms[u]
        if len(fam) != s.target.n:
            raise ValueError(f"vertex {u} PVM has {len(fam)} outcomes, expected {s.target.n}")
        _check_pvm(fam, s.dim, s.tol, f"vertex {u} PVM")
    total = Fraction(0)
    directed = set(s.instance.directed_edges())
    for (x, y), w in s.dist.items():
        if (x, y) not in directed:
            raise ValueError(f"dist key ({x},{y}) is not a directed edge of the instance")
        if w < 0:
            raise ValueError("dist weights must be nonnegative")
        total += w
    if total != 1:
        raise ValueError(f"dist weights sum to {total}, expected 1")
    if need_edge_pvms:
        if s.edge_pvms is None:
            raise ValueError("strategy has no edge PVMs")
        target_edges = s.target.directed_edges()
        for (x, y), w in s.dist.items():
            if w == 0:
                continue
            if (x, y) not in s.edge_pvms:
                raise ValueError(f"edge ({x},{y}) has weight but no PVM")
        for (x, y), fam in s.edge_pvms.items():
            for key in fam:
                if key not in target_edges:
                    raise ValueError(f"edge PVM ({x},{y}) outcome {key} is not a directed "
                                     "target edge")
            _check_pvm([fam.get(e, np.zeros((s.dim, s.dim), dtype=complex))
                        for e in target_edges], s.dim, s.tol, f"edge ({x},{y}) PVM")


# ---------------------------------------------------------------------------
# Defects


def assignment_defect(s: Strategy) -> float:
    """Weighted squared-violation total of the assignment relations.

    For each directed edge (x, y) and each target pair (a, b) that is not a
    directed target edge, the violated monomial is P^x_a P^y_b with squared
    trace norm tau(P^y_b P^x_a P^y_b).
    """
    validate_strategy(s)
    bad_pairs = [(a, b) for a in range(s.target.n) for b in range(s.target.n)
                 if not s.target.has_edge(a, b)]  # includes a == b
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


def cv_defect(s: Strategy) -> float:
    """Constraint-variable defect: edge outcomes disagreeing with an endpoint.

    Each directed edge (x, y) contributes, for both endpoint slots, the
    squared trace norm of Phi^{(x,y)}_{(a,b)} (1 - P^{endpoint}_{outcome}),
    weighted by dist(x,y)/2.
    """
    validate_strategy(s, need_edge_pvms=True)
    eye = np.eye(s.dim, dtype=complex)
    out = 0.0
    for (x, y), w in sorted(s.dist.items()):
        if w == 0:
            continue
        fam = s.edge_pvms[(x, y)]
        term = 0.0
        for (a, b), phi in sorted(fam.items()):
            for endpoint, c in ((x, a), (y, b)):
                term += trace_norm_sq(phi @ (eye - s.vertex_pvms[endpoint][c]))
        out += float(w) / 2.0 * term
    return out


def cc_defect(s: Strategy, pair_dist: dict[tuple[DirectedEdge, DirectedEdge], Fraction]) -> float:
    """Constraint-constraint defect: products of two edge-PVM outcomes that
    disagree at a shared instance vertex, weighted by pair_dist."""
    validate_strategy(s, need_edge_pvms=True)
    directed = set(s.instance.directed_edges())
    total = Fraction(0)
    for (e1, e2), w in pair_dist.items():
        if e1 not in directed or e2 not in directed:
            raise ValueError(f"pair_dist key ({e1},{e2}) is not a pair of directed edges")
        if w < 0:
            raise ValueError("pair_dist weights must be nonnegative")
        total += w
    if total != 1:
        raise ValueError(f"pair_dist weights sum to {total}, expected 1")
    out = 0.0
    for (e1, e2), w in sorted(pair_dist.items()):
        if w == 0:
            continue
        shared = [(i, j) for i in range(2) for j in range(2) if e1[i] == e2[j]]
        if not shared:
            continue
        fam1 = s.edge_pvms.get(e1, {})
        fam2 = s.edge_pvms.get(e2, {})
        term = 0.0
        for b1, phi1 in sorted(fam1.items()):
            for b2, phi2 in sorted(fam2.items()):
                if any(b1[i] != b2[j] for i, j in shared):
                    term += trace_norm_sq(phi1 @ phi2)
        out += float(w) * term
    return out


def commutator_defect(s: Strategy, x: int, y: int) -> float:
    """Sum of squared trace norms of [P^x_a, P^y_b] over all outcome pairs."""
    validate_strategy(s)
    px, py = s.vertex_pvms[x], s.vertex_pvms[y]
    out = 0.0
    for a in range(s.target.n):
        for b in range(s.target.n):
            c = px[a] @ py[b] - py[b] @ px[a]
            out += trace_norm_sq(c)
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
    one = np.ones((1, 1), dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    vertex_pvms = {u: [one.copy() if a == assignment[u] else zero.copy()
                       for a in range(g.n)] for u in range(h.n)}
    dist = dist if dist is not None else uniform_edge_dist(h)
    edge_pvms = None
    if with_edge_pvms:
        edge_pvms = {}
        for (x, y) in h.directed_edges():
            img = (assignment[x], assignment[y])
            if not g.has_edge(*img):
                raise ValueError(f"assignment maps edge ({x},{y}) to non-edge {img}; "
                                 "no consistent edge PVM exists")
            edge_pvms[(x, y)] = {img: one.copy()}
    return Strategy(h, g, 1, vertex_pvms, dist, edge_pvms)


def strategy_from_vertex_pvms(h: Graph, g: Graph, dim: int,
                              pvms: dict[int, Sequence[np.ndarray]],
                              dist: Optional[dict[DirectedEdge, Fraction]] = None) -> Strategy:
    fams = {u: [np.asarray(p, dtype=complex) for p in fam] for u, fam in pvms.items()}
    return Strategy(h, g, dim, fams, dist if dist is not None else uniform_edge_dist(h))
