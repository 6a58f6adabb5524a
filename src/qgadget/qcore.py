"""Combinatorial quantum-core certificates.

A complete certificate for a graph consists of one walk length per vertex
pair, chosen so that purely algebraic consequences force every quantum
endomorphism to be a quantum automorphism:

  * column condition -- for each pair of distinct vertices (a, a'), a length
    l with a walk a -> a' but no closed walk of length l anywhere in the
    graph.  This kills every product of two same-column generators, which in
    turn forces the column sums of the generator matrix to be 1.
  * cross condition -- for each pair of distinct non-adjacent vertices, a
    length l with a walk a -> a' but no walk of length l between any two
    adjacent vertices.  This yields the transposed adjacency relations.

Both conditions are threshold conditions per parity: a walk a -> a' of
length l exists iff l reaches the pair's parity distance, and "some closed
walk" / "some adjacent pair joined" hold from a per-parity threshold on.  So
the minimal valid length of every pair is read off the walk table's parity
distances in O(n^2), whatever the search bound.

The module stays entirely combinatorial: it never touches algebra elements.
Verification does not trust the table that found the lengths: it re-checks
every recorded length with bool-dtype powers of the adjacency matrix (by
repeated squaring, which cannot overflow), so the trusted computing base is
the boolean matrix power.  A missing length within the search bound makes
the result inconclusive, not a disproof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from .graphs import Graph
from .walks import NO_WALK, walk_table
from .endo import DEFAULT_MAX_VERTICES, _all_bijective, _scan_schmidt_pairs, endomorphism_rows


@dataclass(frozen=True)
class QuantumCoreCertificate:
    graph_label: str
    column_lengths: dict[tuple[int, int], int]
    cross_lengths: dict[tuple[int, int], int]

    def to_json(self) -> dict:
        return {"graph": self.graph_label,
                "column_lengths": {f"{a},{b}": l for (a, b), l in sorted(self.column_lengths.items())},
                "cross_lengths": {f"{a},{b}": l for (a, b), l in sorted(self.cross_lengths.items())}}


def _minimal_lengths(dist: np.ndarray, forbidden_from: np.ndarray) -> np.ndarray:
    """Per pair, the least length l >= 1 with a walk of length l but l below
    the forbidden threshold of its parity; NO_WALK where there is none.  Only
    called on pairs of distinct vertices, whose parity distances are >= 1."""
    out = np.full(dist.shape[1:], NO_WALK, dtype=dist.dtype)
    for p in (0, 1):
        np.minimum(out, np.where(dist[p] < forbidden_from[p], dist[p], NO_WALK), out=out)
    return out


def quantum_core_certificate(g: Graph, lmax: int) -> Optional[QuantumCoreCertificate]:
    """Search walk lengths up to lmax for the column and cross conditions.

    Lengths are chosen minimal per pair.  Returns None when any pair admits
    no valid length within lmax (inconclusive).
    """
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    t = walk_table(g, lmax)
    dist = t.dist
    # a closed walk of length l >= 1 exists somewhere iff l >= closed_from[l % 2]
    live = np.flatnonzero(t.has_neighbour)
    closed_from = dist[:, live, live].min(axis=1, initial=NO_WALK)
    # some adjacent pair is joined by a walk of length l iff l >= joined_from[l % 2]
    eu, ev = np.nonzero(g.adj)
    joined_from = dist[:, eu, ev].min(axis=1, initial=NO_WALK)

    a, b = np.triu_indices(g.n, 1)
    nonadjacent = ~g.adj[a, b]
    column = _minimal_lengths(dist, closed_from)[a, b]
    cross = _minimal_lengths(dist, joined_from)[a[nonadjacent], b[nonadjacent]]
    # NO_WALK marks a pair with no valid length, whatever lmax is
    bound = min(lmax, NO_WALK - 1)
    if (column > bound).any() or (cross > bound).any():
        return None
    pairs = list(zip(a.tolist(), b.tolist()))
    return QuantumCoreCertificate(g.label, dict(zip(pairs, column.tolist())),
                                  dict(zip(compress(pairs, nonadjacent), cross.tolist())))


def _bool_power(squares: list[np.ndarray], ell: int) -> np.ndarray:
    """adj^ell in bool dtype by repeated squaring; squares[i] is adj^(2^i)
    and is extended in place as needed."""
    out = None
    bit = 0
    while ell >> bit:
        if bit == len(squares):
            squares.append(squares[-1] @ squares[-1])
        if (ell >> bit) & 1:
            out = squares[bit] if out is None else out @ squares[bit]
        bit += 1
    return np.eye(len(squares[0]), dtype=bool) if out is None else out


def verify_quantum_core_certificate(g: Graph, cert: QuantumCoreCertificate) -> None:
    """Re-verify every recorded length with bool-dtype powers of the adjacency
    matrix, independent of the walk table; raises ValueError on the first
    failing pair in row-major order, including missing pairs."""
    if not cert.column_lengths and not cert.cross_lengths:
        if g.n > 1:
            raise ValueError("certificate is empty")
        return
    eu, ev = np.nonzero(g.adj)
    squares = [g.adj]
    # ell -> (adj^ell, some closed walk of length ell, some adjacent pair joined)
    at_length: dict[int, tuple[np.ndarray, bool, bool]] = {}

    def check(kind: str, lengths: dict[tuple[int, int], int], a: int, b: int) -> None:
        if (a, b) not in lengths:
            raise ValueError(f"{kind} pair ({a},{b}) missing")
        ell = lengths[(a, b)]
        if not isinstance(ell, (int, np.integer)) or ell < 0:
            raise ValueError(f"{kind} pair ({a},{b}): no walk of length {ell}")
        if ell not in at_length:
            power = _bool_power(squares, ell)
            at_length[ell] = (power, bool(power.diagonal().any()), bool(power[eu, ev].any()))
        power, closed_any, joined_any = at_length[ell]
        if not power[a, b]:
            raise ValueError(f"{kind} pair ({a},{b}): no walk of length {ell}")
        if kind == "column" and closed_any:
            raise ValueError(f"column pair ({a},{b}): closed walk of length {ell} exists")
        if kind == "cross" and joined_any:
            raise ValueError(f"cross pair ({a},{b}): adjacent pair joined at length {ell}")

    for a in range(g.n):
        for b in range(a + 1, g.n):
            check("column", cert.column_lengths, a, b)
            if not g.has_edge(a, b):
                check("cross", cert.cross_lengths, a, b)


@dataclass(frozen=True)
class ClassicalOnlyReport:
    graph_label: str
    quantum_core_certified: bool
    certificate: Optional[QuantumCoreCertificate]
    classical_core: Optional[bool]
    schmidt_pair_found: Optional[bool]
    no_quantum_symmetry_assumed: bool
    conclusion: str

    def to_json(self) -> dict:
        # the certificate itself is left out: a qcore report carries it once,
        # as result.certificate
        return {"graph": self.graph_label,
                "quantum_core_certified": self.quantum_core_certified,
                "classical_core": self.classical_core,
                "schmidt_pair_found": self.schmidt_pair_found,
                "no_quantum_symmetry_assumed": self.no_quantum_symmetry_assumed,
                "conclusion": self.conclusion}


def classical_only_report(g: Graph, assume_no_quantum_symmetry: bool,
                          lmax: Optional[int] = None,
                          max_vertices: int = DEFAULT_MAX_VERTICES) -> ClassicalOnlyReport:
    """Chain the three links needed to conclude "only classical endomorphisms":
    a quantum-core certificate, classical coreness, and the externally sourced
    no-quantum-symmetry input.  The conclusion is emitted only when all three
    hold, with the external assumption flagged as an input, never validated.
    """
    if lmax is None:
        lmax = 2 * g.n + 2
    cert = quantum_core_certificate(g, lmax)
    core: Optional[bool] = None
    schmidt: Optional[bool] = None
    if g.n <= max_vertices:
        rows = endomorphism_rows(g, max_vertices)
        core = _all_bijective(rows)
        schmidt = _scan_schmidt_pairs(g, rows, oracular=False) is not None
    if cert is not None and core and assume_no_quantum_symmetry:
        conclusion = ("only classical endomorphisms (quantum core certified, classical core "
                      "verified, no quantum symmetry assumed from external input)")
    elif cert is not None and core:
        conclusion = ("quantum core certified and classical core verified; classicality of all "
                      "endomorphisms is contingent on the external no-quantum-symmetry result")
    elif cert is not None:
        conclusion = "quantum core certified; classical coreness not established at this size"
    else:
        conclusion = "inconclusive: no complete walk certificate within the search bound"
    if schmidt:
        conclusion += "; NOTE: a Schmidt pair exists, so non-classical endomorphisms are present"
    return ClassicalOnlyReport(g.label, cert is not None, cert, core, schmidt,
                               assume_no_quantum_symmetry, conclusion)
