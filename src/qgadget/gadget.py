"""Commutativity-gadget candidates: checks, constructions, refutations, splicing.

A gadget candidate is a graph with two distinguished vertices, aimed at a
target graph.  Two machine-checkable analyses are available:

  * property (i), classically: for every pair (a, b) of target vertices,
    search for a classical homomorphism pinning the distinguished vertices to
    a and b.  A full table establishes property (i) with classical witnesses
    (which also covers the oracular variant).
  * walk obstructions: a walk length realisable between the distinguished
    vertices but not between some target pair refutes the candidate outright.

Property (ii) -- commutation in every quantum morphism -- is never claimed by
this tool except negatively, via an explicit noncommuting representation, or
by recorded status for families established elsewhere; the status enum keeps
that distinction explicit.

The constructors return the candidate with the property-(i) table they built
and verified, so no caller searches that table again.

The box-product disproof pipeline refutes every candidate distinguished pair
of (odd cycle) box (path) as a gadget for the odd cycle: pairs too close are
killed by the distance bound, and all others by a verified dimension-2
representation with a noncommuting witness at the distinguished pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Optional

import numpy as np

from .graphs import (Graph, adjacency_equal, box_product, categorical_product, complement,
                     complete_graph, cycle_graph, graph_from_edges, path_graph)
from .walks import walk_table
from .endo import _check_maps, _first_homomorphisms
from .qrep import (VerificationFailure, commutator_norm, lift_box_rep,
                   path_to_cycle_rep, verify_rep)

STATUS_CANDIDATE = "candidate"
STATUS_PROVEN_ORACULAR = "proven_oracular"
STATUS_REFUTED = "refuted"


@dataclass(frozen=True, eq=False)
class GadgetCandidate:
    gadget: Graph
    x: int
    y: int
    target: Graph
    status: str = STATUS_CANDIDATE
    provenance: str = ""

    def __post_init__(self):
        if not (0 <= self.x < self.gadget.n and 0 <= self.y < self.gadget.n):
            raise ValueError("distinguished vertices out of range")
        if self.x == self.y:
            raise ValueError("distinguished vertices must differ")
        if self.status not in (STATUS_CANDIDATE, STATUS_PROVEN_ORACULAR, STATUS_REFUTED):
            raise ValueError(f"unknown status {self.status!r}")

    def to_json(self) -> dict:
        return {"gadget": self.gadget.to_json(), "x": self.x, "y": self.y,
                "target": self.target.to_json(), "status": self.status,
                "provenance": self.provenance}


# ---------------------------------------------------------------------------
# Property (i), classically


@dataclass(frozen=True)
class PropertyITable:
    complete: bool
    witnesses: dict[tuple[int, int], Optional[tuple[int, ...]]]

    def to_json(self) -> dict:
        return {"complete": self.complete,
                "entries": {f"{a},{b}": (list(w) if w is not None else None)
                            for (a, b), w in sorted(self.witnesses.items())}}


def check_property_i_classical(c: GadgetCandidate) -> PropertyITable:
    """Pinned homomorphism search for every target pair (a, b).

    A complete table shows property (i) holds with classical witnesses; a
    miss only shows no *classical* witness exists for that pair, which is
    inconclusive for quantum witnesses.  The whole table is re-checked at
    once by :func:`_checked_table`.
    """
    full = (1 << c.target.n) - 1
    witnesses: dict[tuple[int, int], Optional[tuple[int, ...]]] = {}
    for a in range(c.target.n):
        for b in range(c.target.n):
            domains = [full] * c.gadget.n
            domains[c.x], domains[c.y] = 1 << a, 1 << b
            witnesses[(a, b)] = next(_first_homomorphisms(c.gadget, c.target, domains), None)
    return _checked_table(c, witnesses, "property (i) witness")


def _checked_table(c: GadgetCandidate, witnesses: dict, what: str) -> PropertyITable:
    """The property-(i) table of these witnesses, each re-checked by
    ``endo._check_maps``, apart from the search, as a map sending (x, y) to its pair."""
    hits = [(pair, w) for pair, w in witnesses.items() if w is not None]
    pins = np.array([p for p, _ in hits], dtype=int).reshape(-1, 2)
    rows = np.array([w for _, w in hits], dtype=int).reshape(-1, c.gadget.n)
    _check_maps(c.gadget, c.target, rows, what, {c.x: pins[:, 0], c.y: pins[:, 1]})
    return PropertyITable(len(hits) == len(witnesses), witnesses)


# ---------------------------------------------------------------------------
# Walk obstructions


@dataclass(frozen=True)
class WalkObstruction:
    length: int
    pair: tuple[int, int]

    def to_json(self) -> dict:
        return {"length": self.length, "pair": list(self.pair)}


def default_obstruction_lmax(c: GadgetCandidate) -> int:
    return 2 * (c.gadget.n + c.target.n)


def walk_obstruction(c: GadgetCandidate, lmax: Optional[int] = None) -> Optional[WalkObstruction]:
    """First walk length realisable between x and y but missing between some
    target pair; such a length refutes the candidate.  None means no
    obstruction up to lmax (which proves nothing)."""
    if lmax is None:
        lmax = default_obstruction_lmax(c)
    tg = walk_table(c.gadget, lmax)
    ta = walk_table(c.target, lmax)
    # above both tables' settled lengths, walk existence repeats with period 2
    for ell in range(min(lmax, max(tg.settled, ta.settled) + 2) + 1):
        if not tg.has_walk(ell, c.x, c.y):
            continue
        missing = ~ta.reach(ell)
        if missing.any():
            a, b = np.unravel_index(np.argmax(missing), missing.shape)
            return WalkObstruction(ell, (int(a), int(b)))
    return None


# ---------------------------------------------------------------------------
# Constructions


def complement_cycle_gadget(k: int) -> tuple[GadgetCandidate, PropertyITable]:
    """The complement of the 2k-cycle with distinguished vertices 0, 1, aimed
    at K_k, and its property-(i) table.  Property (ii) is established by
    proof for this family; property (i) and the absence of walk obstructions
    are re-checked on every construction, and failure signals a bug."""
    if k < 3:
        raise ValueError("complement-cycle gadget needs k >= 3")
    cand = GadgetCandidate(complement(cycle_graph(2 * k)), 0, 1, complete_graph(k),
                           STATUS_PROVEN_ORACULAR,
                           provenance="complement-cycle family; commutation property "
                                      "established by proof, not re-verified here")
    table = check_property_i_classical(cand)
    if not table.complete:
        raise VerificationFailure(f"complement-cycle gadget k={k}: property (i) table incomplete")
    obstruction = walk_obstruction(cand)
    if obstruction is not None:
        raise VerificationFailure(f"complement-cycle gadget k={k}: unexpected walk "
                                  f"obstruction {obstruction}")
    return cand, table


def product_transfer(c: GadgetCandidate,
                     c2: GadgetCandidate) -> tuple[GadgetCandidate, PropertyITable]:
    """Transfer a shared gadget to the categorical product of the two targets;
    returns the new candidate and its property-(i) table.

    Requires both candidates to use the same gadget graph and distinguished
    vertices.  A pinned map into the product is a pair of pinned factor maps,
    and the lexicographically first is the pair of first maps, so the factor
    tables combined pointwise equal a fresh search of the product.  Each
    combined map is re-checked.  The proven status survives only when both
    inputs carry it.
    """
    if not adjacency_equal(c.gadget, c2.gadget) or (c.x, c.y) != (c2.x, c2.y):
        raise ValueError("candidates must share the same gadget graph and distinguished vertices")
    product = categorical_product(c.target, c2.target)
    status = c.status if c.status == c2.status == STATUS_PROVEN_ORACULAR else STATUS_CANDIDATE
    out = GadgetCandidate(c.gadget, c.x, c.y, product, status,
                          provenance=f"categorical-product transfer onto "
                                     f"{product.label or 'the product target'}")
    t1 = check_property_i_classical(c).witnesses
    t2 = check_property_i_classical(c2).witnesses
    nk = c2.target.n
    witnesses: dict[tuple[int, int], Optional[tuple[int, ...]]] = {}
    for a in range(product.n):
        for b in range(product.n):
            (v, w), (vp, wp) = divmod(a, nk), divmod(b, nk)
            w1, w2 = t1[(v, vp)], t2[(w, wp)]
            witnesses[(a, b)] = (None if w1 is None or w2 is None
                                 else tuple(p * nk + q for p, q in zip(w1, w2)))
    table = _checked_table(out, witnesses, "combined witness")
    if status == STATUS_PROVEN_ORACULAR and not table.complete:
        raise VerificationFailure("proven inputs produced an incomplete combined table")
    return out, table


def splice_gadget(h: Graph, comm_pairs: list[tuple[int, int]], c: GadgetCandidate) -> Graph:
    """Adjoin a fresh copy of the gadget for each designated vertex pair of h,
    identifying the copy's distinguished vertices with the pair.

    Vertex numbering: original vertices of h first, then the non-distinguished
    gadget vertices per pair in pair order (each block in increasing gadget
    index).
    """
    for (u, v) in comm_pairs:
        if not (0 <= u < h.n and 0 <= v < h.n):
            raise ValueError(f"pair ({u},{v}) out of range for the instance graph")
        if u == v:
            raise ValueError(f"pair ({u},{v}) must name two distinct vertices")
    edges = set(h.edges())
    n = h.n
    other = [z for z in range(c.gadget.n) if z not in (c.x, c.y)]
    for (u, v) in comm_pairs:
        placement = {c.x: u, c.y: v}
        for z in other:
            placement[z] = n
            n += 1
        for (z1, z2) in c.gadget.edges():
            e = (placement[z1], placement[z2])
            edges.add((min(e), max(e)))
    label = f"splice({h.label or 'instance'},{len(comm_pairs)}x{c.gadget.label or 'gadget'})"
    return graph_from_edges(n, sorted(edges), label)


# ---------------------------------------------------------------------------
# Box-path disproof pipeline


@dataclass(frozen=True)
class Refutation:
    kind: str                       # "distance" or "noncommuting_witness"
    detail: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, **self.detail}


@dataclass(frozen=True)
class CandidateClass:
    representative: tuple[tuple[int, int], tuple[int, int]]  # ((a0,s0),(b0,t0))
    members: int
    refutation: Refutation

    def to_json(self) -> dict:
        return {"representative": [list(p) for p in self.representative],
                "members": self.members, "refutation": self.refutation.to_json()}


@dataclass(frozen=True)
class DisproofReport:
    n: int
    k: int
    graph_label: str
    total_pairs: int
    classes: tuple[CandidateClass, ...]
    all_refuted: bool

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "graph": self.graph_label,
                "total_pairs": self.total_pairs, "all_refuted": self.all_refuted,
                "classes": [c.to_json() for c in self.classes]}


def _cycle_dist(a: int, b: int, m: int) -> int:
    d = (a - b) % m
    return min(d, m - d)


def _pair_symmetry_orbit(pair, m, k):
    """Orbit of an unordered distinguished pair under the dihedral symmetry of
    the cycle factor combined with the path reflection."""
    (a0, s0), (b0, t0) = pair
    out = set()
    for flip_path in (False, True):
        s1, t1 = (k - s0, k - t0) if flip_path else (s0, t0)
        for reflect in (False, True):
            a1, b1 = ((-a0) % m, (-b0) % m) if reflect else (a0, b0)
            for rot in range(m):
                p = ((a1 + rot) % m, s1)
                q = ((b1 + rot) % m, t1)
                out.add((p, q) if (p <= q) else (q, p))
    return out


def enumerate_candidate_classes(n: int, k: int) -> dict:
    """Group all unordered distinguished pairs of (2n+1-cycle) box (path of
    length k) by the graph's evident symmetries.  Returns canonical pair (the
    least member of its orbit) -> member count, in sorted order."""
    m = 2 * n + 1
    vertices = [(a, s) for a in range(m) for s in range(k + 1)]
    size = len(vertices)
    seen = bytearray(size * size)  # seen[i * size + j]: pair of vertex indices i < j
    classes: dict = {}
    for i in range(size):
        for j in range(i + 1, size):
            if seen[i * size + j]:
                continue
            orbit = _pair_symmetry_orbit((vertices[i], vertices[j]), m, k)
            for (a, s), (b, t) in orbit:
                seen[(a * (k + 1) + s) * size + b * (k + 1) + t] = 1
            classes[min(orbit)] = len(orbit)
    return dict(sorted(classes.items()))


def analyze_candidate_pair(n: int, k: int, pair, lifts: dict) -> Refutation:
    """Refute one distinguished pair of the box product as a gadget for the
    (2n+1)-cycle: by the distance bound when the pair sits closer than 2n,
    and otherwise by a verified lifted representation whose entries at the
    pair do not commute.  ``lifts`` memoises the verified lifts by (s0, t0)
    across the pairs of one (n, k)."""
    m = 2 * n + 1
    (a0, s0), (b0, t0) = pair
    if s0 > t0:
        (a0, s0), (b0, t0) = (b0, t0), (a0, s0)
    d = _cycle_dist(a0, b0, m) + (t0 - s0)
    if d < 2 * n:
        return Refutation("distance", {"distance": d, "required": 2 * n})
    # d >= 2n and the cycle contributes at most n, so t0 - s0 >= n >= 2
    lifted = lifts.get((s0, t0))
    if lifted is None:
        lifted = lift_box_rep(path_to_cycle_rep(k, s0, t0, n), m)
        report = verify_rep(lifted)
        if not report.passed:
            raise VerificationFailure(f"lifted representation for (s0,t0)=({s0},{t0}) failed "
                                      f"verification, max residual {report.max_residual}")
        lifts[(s0, t0)] = lifted
    u = (a0 * (k + 1) + s0, (s0 - a0) % m)
    v = (b0 * (k + 1) + t0, (t0 - b0) % m)
    norm = commutator_norm(lifted, u, v)
    if norm <= lifted.tol:
        raise VerificationFailure(f"witness commutator unexpectedly vanished for pair {pair}")
    return Refutation("noncommuting_witness",
                      {"s0": s0, "t0": t0, "witness": [list(u), list(v)],
                       "commutator_norm": norm, "rep_verified": True})


def disprove_box_path_gadget(n: int, k: int) -> DisproofReport:
    """Refute every candidate distinguished pair of (2n+1-cycle) box (path of
    length k) as a commutativity gadget for the (2n+1)-cycle; needs n >= 2
    (for n = 1 the construction actually is a gadget, so there is nothing to
    disprove)."""
    if n < 2:
        raise ValueError("need n >= 2: with n = 1 the triangular prism really is a gadget "
                         "for the 3-cycle and no disproof exists")
    if k < 0:
        raise ValueError("path length k must be >= 0")
    m = 2 * n + 1
    box = box_product(cycle_graph(m), path_graph(k))
    classes = enumerate_candidate_classes(n, k)

    def path_pair(pair):  # the (s0, t0) of its lift, for pairs that need one
        return sorted((pair[0][1], pair[1][1]))

    # pairs sharing a path pair share one verified lift; analysing them
    # together keeps a single lift alive at a time
    refutations = {}
    for _, group in groupby(sorted(classes, key=path_pair), key=path_pair):
        lifts: dict = {}
        for pair in group:
            refutations[pair] = analyze_candidate_pair(n, k, pair, lifts)
    results = [CandidateClass(pair, count, refutations[pair]) for pair, count in classes.items()]
    total = sum(c.members for c in results)
    return DisproofReport(n, k, box.label, total, tuple(results), all_refuted=True)
