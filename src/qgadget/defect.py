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
builders and the JSON parser fill it directly and refuse a family for a
vertex outside H or with the wrong number of outcomes.  Edge PVMs stay a
sparse ``{(x, y): {(a, b): matrix}}`` map, since a document lists only the
outcomes it uses; they are stacked (absent outcomes as zero) only while
:func:`validate_strategy` checks them.  Every defect validates first:
families are checked in batches, and the first family that is not a PVM
(not hermitian, not idempotent, a non-orthogonal pair, or a sum other than
the identity, in that order; a NaN residual fails) raises ValueError.

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

from .graphs import Graph, graph_from_json
from .qrep import MAX_STACK_ENTRIES, _complex_array, _complex_stack, _residuals

DEFAULT_TOL = 1e-9
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
    edge_pvms: Optional[dict[DirectedEdge, dict[DirectedEdge, np.ndarray]]] = None
    tol: float = DEFAULT_TOL

    def to_json(self) -> dict:
        def mat(m):
            return [[[float(z.real), float(z.imag)] for z in row] for row in m]
        out = {"instance": self.instance.to_json(), "target": self.target.to_json(),
               "dim": self.dim, "tol": self.tol,
               "vertex_pvms": {str(u): [mat(p) for p in fam]
                               for u, fam in enumerate(self.vertex_pvms)},
               "dist": {f"{x},{y}": f"{w.numerator}/{w.denominator}"
                        for (x, y), w in sorted(self.dist.items())}}
        if self.edge_pvms is not None:
            out["edge_pvms"] = {f"{x},{y}": {f"{a},{b}": mat(m) for (a, b), m in sorted(fam.items())}
                                for (x, y), fam in sorted(self.edge_pvms.items())}
        return out


def _as_matrix(m, dim: int) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix has shape {m.shape}, expected ({dim},{dim})")
    return m


def _as_family(fam, dim: int) -> np.ndarray:
    out = np.zeros((len(fam), dim, dim), dtype=complex)
    for a, m in enumerate(fam):
        out[a] = _as_matrix(m, dim)
    return out


def _parse_family(fam, dim: int) -> np.ndarray:
    """A JSON family of [re, im] matrices as one (len(fam), dim, dim) array."""
    stack = _complex_stack(fam, dim)
    if stack is None:  # matrix by matrix, to name the first bad one
        return _as_family([_complex_array(m) for m in fam], dim)
    return stack


def _vertex_stack(h: Graph, g: Graph, dim: int, fams,
                  family: Callable[[object, int], np.ndarray]) -> np.ndarray:
    """The (h.n, g.n, dim, dim) stack of the (vertex, family) pairs ``fams``,
    each family converted by ``family``; every instance vertex needs exactly
    one family of g.n elements."""
    stack = np.zeros((h.n, g.n, dim, dim), dtype=complex)
    seen = np.zeros(h.n, dtype=bool)
    for u, fam in fams:
        u = int(u)
        if not 0 <= u < h.n:
            raise ValueError(f"vertex_pvms key {u} is not an instance vertex (0..{h.n - 1})")
        if len(fam) != g.n:
            raise ValueError(f"vertex {u} PVM has {len(fam)} outcomes, expected {g.n}")
        stack[u] = family(fam, dim)
        seen[u] = True
    if not seen.all():
        raise ValueError(f"vertex {int(np.argmin(seen))} has no PVM")
    return stack


def strategy_from_json(obj: dict) -> Strategy:
    """Inverse of :meth:`Strategy.to_json`; raises ValueError on a malformed
    document, or on one whose vertex stack would exceed MAX_STACK_ENTRIES
    numbers."""
    try:
        dim = int(obj["dim"])
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        inst, targ = graph_from_json(obj["instance"]), graph_from_json(obj["target"])
        size = inst.n * targ.n * dim * dim
        if size > MAX_STACK_ENTRIES:
            raise ValueError(f"{inst.n} vertex PVMs of {targ.n} outcomes in dimension {dim} "
                             f"need {size} matrix elements, more than {MAX_STACK_ENTRIES}")
        vertex_pvms = _vertex_stack(inst, targ, dim, obj["vertex_pvms"].items(), _parse_family)
        dist = {}
        weights: dict = {}  # each distinct weight value is parsed once
        for key, val in obj["dist"].items():
            x, y = (int(t) for t in key.split(","))
            try:
                w = weights[val]
            except (KeyError, TypeError):
                # an unhashable value raises Fraction's own error here
                w = weights[val] = Fraction(val)
            dist[(x, y)] = w
        edge_pvms = None
        if obj.get("edge_pvms") is not None:
            edge_pvms = {}
            for ekey, fam in obj["edge_pvms"].items():
                x, y = (int(t) for t in ekey.split(","))
                outcomes = [tuple(int(t) for t in okey.split(",")) for okey in fam]
                edge_pvms[(x, y)] = dict(zip(outcomes, _parse_family(list(fam.values()), dim)))
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


def _check_pvms(fams: np.ndarray, tol: float, label: Callable[[int], str]):
    """Raise ValueError for the first family of the (F, k, d, d) stack that is
    not a PVM: per element hermitian then idempotent, then the pairs (i, j)
    in row-major order, then the sum.  A residual that is not a number
    fails.  ``label(f)`` names family f in the message."""
    n_fam, k, d = fams.shape[:3]
    eye = np.eye(d)
    for chunk in _chunks(n_fam, k * d * d):
        p = fams[chunk]
        herm = _residuals(p - p.conj().swapaxes(-1, -2))
        idem = _residuals(p @ p - p)
        bad_el = (~(herm <= tol) | ~(idem <= tol)).any(axis=1)
        bad_sum = ~(_residuals(p.sum(axis=1) - eye) <= tol)
        pair = _first_bad_pair(p, tol)
        bad = np.flatnonzero(bad_el | bad_sum)
        if not len(bad) and pair is None:
            continue
        f = min(int(bad[0]) if len(bad) else n_fam, pair[0] if pair else n_fam)
        what = label(chunk.start + f)
        if bad_el[f]:
            i = int(np.argmax(~(herm[f] <= tol) | ~(idem[f] <= tol)))
            check = "hermitian" if not herm[f, i] <= tol else "idempotent"
            raise ValueError(f"{what}: element {i} is not {check}")
        if pair and pair[0] == f:
            raise ValueError(f"{what}: elements {pair[1]} and {pair[2]} are not orthogonal")
        raise ValueError(f"{what}: family does not sum to the identity")


def _edge_family_error(e: DirectedEdge, fam: dict, index: dict, dim: int) -> Optional[str]:
    """Why edge family ``fam`` cannot be stacked over the target edges
    ``index``, or None."""
    for key, m in fam.items():
        if key not in index:
            return f"edge PVM ({e[0]},{e[1]}) outcome {key} is not a directed target edge"
        if np.shape(m) != (dim, dim):
            return f"edge ({e[0]},{e[1]}) PVM: element {index[key]} has shape {np.shape(m)}"
    return None


def _check_edge_pvms(s: Strategy):
    """Check the edge families in dict order, each stacked over the directed
    target edges (absent outcomes zero); a family that cannot be stacked
    raises once the families before it have passed."""
    target_edges = s.target.directed_edges()
    index = {e: i for i, e in enumerate(target_edges)}
    fams = list(s.edge_pvms.items())
    errors = [_edge_family_error(e, fam, index, s.dim) for e, fam in fams]
    n_ok = next((f for f, err in enumerate(errors) if err), len(fams))
    for chunk in _chunks(n_ok, len(target_edges) * s.dim * s.dim):
        part = fams[:n_ok][chunk]
        stack = np.zeros((len(part), len(target_edges), s.dim, s.dim), dtype=complex)
        for f, (_, fam) in enumerate(part):
            for key, m in fam.items():
                stack[f, index[key]] = m
        _check_pvms(stack, s.tol, lambda f: "edge ({},{}) PVM".format(*part[f][0]))
    if n_ok < len(fams):
        raise ValueError(errors[n_ok])


def validate_strategy(s: Strategy, need_edge_pvms: bool = False):
    shape = (s.instance.n, s.target.n, s.dim, s.dim)
    if np.shape(s.vertex_pvms) != shape:
        raise ValueError(f"vertex PVM stack has shape {np.shape(s.vertex_pvms)}, "
                         f"expected {shape}")
    _check_pvms(s.vertex_pvms, s.tol, lambda u: f"vertex {u} PVM")
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
        for (x, y), w in s.dist.items():
            if w == 0:
                continue
            if (x, y) not in s.edge_pvms:
                raise ValueError(f"edge ({x},{y}) has weight but no PVM")
        _check_edge_pvms(s)


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
    phis, slots, starts = [], [], []
    for (x, y), w in sorted(s.dist.items()):
        if w == 0:
            continue
        starts.append(len(phis))
        for (a, b), phi in sorted(s.edge_pvms[(x, y)].items()):
            phis += [phi, phi]
            slots += [(x, a), (y, b)]
    phis = np.array(phis, dtype=complex).reshape(-1, s.dim, s.dim)
    us, cs = np.array(slots, dtype=np.intp).reshape(-1, 2).T
    norms = np.empty(len(phis))
    for c in _chunks(len(phis), 3 * s.dim * s.dim):
        norms[c] = _tau_sq(phis[c] @ (np.eye(s.dim) - s.vertex_pvms[us[c], cs[c]]))
    # every weighted family is a validated PVM, hence non-empty
    return _weighted_sum(s, np.add.reduceat(norms, starts) / 2.0)


def _stacked_family(fam: dict[DirectedEdge, np.ndarray], dim: int):
    """Outcomes (k, 2) in sorted order and their matrices (k, dim, dim)."""
    keys = sorted(fam)
    return (np.array(keys, dtype=np.intp).reshape(-1, 2),
            np.array([fam[key] for key in keys], dtype=complex).reshape(-1, dim, dim))


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
    stacked = {}
    out = 0.0
    for (e1, e2), w in sorted(pair_dist.items()):
        if w == 0:
            continue
        shared = [(i, j) for i in range(2) for j in range(2) if e1[i] == e2[j]]
        if not shared:
            continue
        for e in (e1, e2):
            if e not in stacked:
                stacked[e] = _stacked_family(s.edge_pvms.get(e, {}), s.dim)
        (keys1, mats1), (keys2, mats2) = stacked[e1], stacked[e2]
        disagree = np.zeros((len(keys1), len(keys2)), dtype=bool)
        for i, j in shared:
            disagree |= keys1[:, i, None] != keys2[None, :, j]
        i1, i2 = np.nonzero(disagree)
        term = 0.0
        for c in _chunks(len(i1), 3 * s.dim * s.dim):
            term += float(_tau_sq(mats1[i1[c]] @ mats2[i2[c]]).sum())
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
    edge_pvms = None
    if with_edge_pvms:
        one = np.ones((1, 1), dtype=complex)
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
    """Strategy from one family of g.n matrices per instance vertex, with the
    uniform edge weight unless ``dist`` is given."""
    return Strategy(h, g, dim, _vertex_stack(h, g, dim, pvms.items(), _as_family),
                    dist if dist is not None else uniform_edge_dist(h))
