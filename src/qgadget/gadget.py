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
representation with a noncommuting witness at the distinguished pair, one
batch of witness norms per representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (Graph, _check_order, adjacency_equal, categorical_product, complement,
                     complete_graph, cycle_graph, graph_from_edges)
from .walks import NO_WALK, walk_table
from .endo import _check_maps, _first_homomorphisms
from .qrep import (VerificationFailure, commutator_norms, lift_box_rep,
                   path_to_cycle_rep, verify_rep)

STATUS_CANDIDATE = "candidate"
STATUS_PROVEN_ORACULAR = "proven_oracular"
STATUS_REFUTED = "refuted"
# largest property-(i) table (target.n^2 * gadget.n numbers) a check may build
MAX_TABLE_ENTRIES = 1 << 22


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
    once by :func:`_checked_table`.  Raises ValueError, before any search,
    on a table of more than MAX_TABLE_ENTRIES numbers.
    """
    _check_table_size(c.gadget, c.target.n)
    full = (1 << c.target.n) - 1
    nbrs = c.gadget.neighbour_lists()
    witnesses: dict[tuple[int, int], Optional[tuple[int, ...]]] = {}
    for a in range(c.target.n):
        for b in range(c.target.n):
            domains = [full] * c.gadget.n
            domains[c.x], domains[c.y] = 1 << a, 1 << b
            witnesses[(a, b)] = next(_first_homomorphisms(nbrs, c.target, domains), None)
    return _checked_table(c, witnesses, "property (i) witness")


def _check_table_size(gadget: Graph, targets: int) -> None:
    """Refuse a property-(i) table of more than MAX_TABLE_ENTRIES numbers:
    one witness of gadget.n vertices for each of targets^2 pins."""
    size = targets * targets * gadget.n
    if size > MAX_TABLE_ENTRIES:
        raise ValueError(f"a property-(i) table of {targets}^2 pins with {gadget.n}-vertex "
                         f"witnesses needs {size} numbers, more than {MAX_TABLE_ENTRIES}")


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
    # x != y, so walks x -> y of a parity exist from the shortest one on, at
    # every length of that parity, and the target's reach(l) for l >= 1 only
    # grows from l to l + 2: a parity's first obstruction, if any, is at its
    # shortest walk
    for ell in sorted(d for d in tg.dist[:, c.x, c.y].tolist() if d <= min(lmax, NO_WALK - 1)):
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
    inputs carry it.  The product table's size is checked as by
    :func:`check_property_i_classical`, before the factor tables are searched.
    """
    if not adjacency_equal(c.gadget, c2.gadget) or (c.x, c.y) != (c2.x, c2.y):
        raise ValueError("candidates must share the same gadget graph and distinguished vertices")
    _check_table_size(c.gadget, c.target.n * c2.target.n)
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
    gadget_edges = c.gadget.edges()
    for (u, v) in comm_pairs:
        placement = {c.x: u, c.y: v}
        for z in other:
            placement[z] = n
            n += 1
        for (z1, z2) in gadget_edges:
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


def enumerate_candidate_classes(n: int, k: int) -> dict:
    """Group all unordered distinguished pairs of (2n+1-cycle) box (path of
    length k) by the graph's evident symmetries.  Returns canonical pair (the
    least member of its orbit) -> member count, in sorted order.

    Rotating the cycle leaves only the triple (s, t, d = b - a mod m) of an
    ordered pair ((a, s), (b, t)), and each triple stands for m ordered pairs.
    The cycle's reflection (s, t, -d), the path's flip (k - s, k - t, d) and
    the swap of the ends (t, s, -d) act on the triples.  A triple with d > 0,
    or with d = 0 and s < t, is the pair ((0, s), (d, t)), and the least such
    triple of an orbit names its class.  An orbit of T triples holds m * T / 2
    unordered pairs: m is odd, so the swap fixes no triple."""
    m, w = 2 * n + 1, k + 1
    size = w * m * w
    s, d, t = np.unravel_index(np.arange(size), (w, m, w))  # index (s * m + d) * w + t
    neg = -d % m
    least = np.full(size, size)  # size: no pair, at d = 0 and s = t
    for p, q in ((s, t), (k - s, k - t)):
        for p1, q1, e in ((p, q, d), (p, q, neg), (q, p, neg), (q, p, d)):
            np.minimum(least, np.where((e > 0) | (p1 < q1), (p1 * m + e) * w + q1, size),
                       out=least)
    # counted by np.bincount: the first np.unique of a process pages in numpy's
    # sort code, ~0.4 MB of resident memory
    counts = np.bincount(least[least < size], minlength=size)
    reps = np.flatnonzero(counts)
    s, d, t = (x.tolist() for x in np.unravel_index(reps, (w, m, w)))
    return {((0, s1), (d1, t1)): m * c // 2
            for s1, d1, t1, c in zip(s, d, t, counts[reps].tolist())}


def refute_candidate_pairs(n: int, k: int, pairs: list) -> list[Refutation]:
    """Refute each distinguished pair ((a0, s0), (b0, t0)) of (2n+1-cycle) box
    (path of length k), in the order given, as a gadget for the (2n+1)-cycle:
    by the distance bound, for all pairs at once, when the pair sits closer
    than 2n; otherwise by a verified lift whose entries at it do not commute.

    The witness pairs go in order of t0 (ends swapped so that s0 <= t0).  A
    pair joins the current split x when s0 <= x, and otherwise opens the
    split t0 - 2: greedy interval stabbing, the fewest lifts.  The lift of
    ``path_to_cycle_rep(k, x, x + 2, n)`` holds at the pair's witness entries
    the matrices of the lift of its own (s0, t0), bit for bit, so each split
    is verified once and one batch of ``commutator_norms`` serves its pairs.
    The report names the pair's own (s0, t0), which a reader rebuilds."""
    m, w = 2 * n + 1, k + 1
    a0, s0, b0, t0 = np.array(pairs, dtype=np.intp).reshape(-1, 4).T
    swap = s0 > t0
    a0, b0 = np.where(swap, b0, a0), np.where(swap, a0, b0)
    s0, t0 = np.minimum(s0, t0), np.maximum(s0, t0)
    gap = (a0 - b0) % m
    dist = np.minimum(gap, m - gap) + (t0 - s0)
    u = np.stack([a0 * w + s0, (s0 - a0) % m], axis=1)
    v = np.stack([b0 * w + t0, (t0 - b0) % m], axis=1)
    splits: list[tuple[int, list[int]]] = []
    s0, t0 = s0.tolist(), t0.tolist()
    # d >= 2n and the cycle contributes at most n, so t0 - s0 >= n >= 2
    for i in sorted(np.flatnonzero(dist >= 2 * n).tolist(), key=t0.__getitem__):
        if not splits or s0[i] > splits[-1][0]:
            splits.append((t0[i] - 2, []))
        splits[-1][1].append(i)
    witnessed: dict[int, Refutation] = {}
    for x, members in splits:
        lifted = lift_box_rep(path_to_cycle_rep(k, x, x + 2, n), m)
        report = verify_rep(lifted)
        if not report.passed:
            raise VerificationFailure(f"lifted representation for split (x,x+2)=({x},{x + 2}) "
                                      f"failed verification, max residual {report.max_residual}")
        firsts, seconds = u[members], v[members]
        norms = commutator_norms(lifted, firsts, seconds).tolist()
        for i, uw, vw, norm in zip(members, firsts.tolist(), seconds.tolist(), norms):
            if norm <= lifted.tol:
                raise VerificationFailure(f"witness commutator unexpectedly vanished for "
                                          f"pair {pairs[i]}")
            witnessed[i] = Refutation("noncommuting_witness",
                                      {"s0": s0[i], "t0": t0[i], "witness": [uw, vw],
                                       "commutator_norm": norm, "rep_verified": True})
        del lifted  # one verified lift alive at a time
    return [witnessed[i] if d >= 2 * n
            else Refutation("distance", {"distance": d, "required": 2 * n})
            for i, d in enumerate(dist.tolist())]


def disprove_box_path_gadget(n: int, k: int) -> DisproofReport:
    """Refute every candidate distinguished pair of (2n+1-cycle) box (path of
    length k) as a commutativity gadget for the (2n+1)-cycle; needs n >= 2
    (for n = 1 the construction actually is a gadget, so there is nothing to
    disprove).

    One representative per symmetry class (``enumerate_candidate_classes``)
    is refuted, all of them by one ``refute_candidate_pairs`` call."""
    if n < 2:
        raise ValueError("need n >= 2: with n = 1 the triangular prism really is a gadget "
                         "for the 3-cycle and no disproof exists")
    if k < 0:
        raise ValueError("path length k must be >= 0")
    # the box graph is never built, but is held to the size of one that could be
    _check_order((2 * n + 1) * (k + 1))
    classes = enumerate_candidate_classes(n, k)
    refutations = refute_candidate_pairs(n, k, list(classes))
    results = tuple(CandidateClass(pair, count, refutation)
                    for (pair, count), refutation in zip(classes.items(), refutations))
    # the label box_product(cycle_graph(2n + 1), path_graph(k)) would carry,
    # without building that graph
    return DisproofReport(n, k, f"box(C:{2 * n + 1},P:{k})", sum(classes.values()), results,
                          all_refuted=True)
