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

The module stays entirely combinatorial: it never touches algebra elements,
only walk tables, so the trusted computing base is the boolean matrix power.
A missing length within the search bound makes the result inconclusive, not
a disproof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph
from .walks import walk_table
from .endo import DEFAULT_MAX_VERTICES, _scan_schmidt_pairs, enumerate_endomorphisms


@dataclass(frozen=True)
class QuantumCoreCertificate:
    graph_label: str
    column_lengths: dict[tuple[int, int], int]
    cross_lengths: dict[tuple[int, int], int]

    def to_json(self) -> dict:
        return {"graph": self.graph_label,
                "column_lengths": {f"{a},{b}": l for (a, b), l in sorted(self.column_lengths.items())},
                "cross_lengths": {f"{a},{b}": l for (a, b), l in sorted(self.cross_lengths.items())}}


def quantum_core_certificate(g: Graph, lmax: int) -> Optional[QuantumCoreCertificate]:
    """Search walk lengths up to lmax for the column and cross conditions.

    Lengths are chosen minimal per pair.  Returns None as soon as any pair
    admits no valid length within lmax (inconclusive).
    """
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    t = walk_table(g, lmax)
    # closed_any[l]: some closed walk of length l exists somewhere
    closed_any = [bool(t.exists[ell].diagonal().any()) for ell in range(lmax + 1)]
    # adjacent_any[l]: some adjacent pair is joined by a walk of length l
    edges = g.edges()
    adjacent_any = [bool(any(t.exists[ell, u, v] for u, v in edges)) for ell in range(lmax + 1)]

    column: dict[tuple[int, int], int] = {}
    cross: dict[tuple[int, int], int] = {}
    for a in range(g.n):
        for b in range(a + 1, g.n):
            found = None
            for ell in range(1, lmax + 1):
                if t.exists[ell, a, b] and not closed_any[ell]:
                    found = ell
                    break
            if found is None:
                return None
            column[(a, b)] = found
            if not g.has_edge(a, b):
                found = None
                for ell in range(1, lmax + 1):
                    if t.exists[ell, a, b] and not adjacent_any[ell]:
                        found = ell
                        break
                if found is None:
                    return None
                cross[(a, b)] = found
    return QuantumCoreCertificate(g.label, column, cross)


def verify_quantum_core_certificate(g: Graph, cert: QuantumCoreCertificate) -> None:
    """Re-verify every recorded length against a freshly built walk table;
    raises ValueError on any failure, including missing pairs."""
    lengths = list(cert.column_lengths.values()) + list(cert.cross_lengths.values())
    if not lengths:
        if g.n > 1:
            raise ValueError("certificate is empty")
        return
    t = walk_table(g, max(lengths))
    edges = g.edges()
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if (a, b) not in cert.column_lengths:
                raise ValueError(f"column pair ({a},{b}) missing")
            ell = cert.column_lengths[(a, b)]
            if not t.exists[ell, a, b]:
                raise ValueError(f"column pair ({a},{b}): no walk of length {ell}")
            if t.exists[ell].diagonal().any():
                raise ValueError(f"column pair ({a},{b}): closed walk of length {ell} exists")
            if not g.has_edge(a, b):
                if (a, b) not in cert.cross_lengths:
                    raise ValueError(f"cross pair ({a},{b}) missing")
                ell = cert.cross_lengths[(a, b)]
                if not t.exists[ell, a, b]:
                    raise ValueError(f"cross pair ({a},{b}): no walk of length {ell}")
                if any(t.exists[ell, u, v] for u, v in edges):
                    raise ValueError(f"cross pair ({a},{b}): adjacent pair joined at length {ell}")


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
        return {"graph": self.graph_label,
                "quantum_core_certified": self.quantum_core_certified,
                "certificate": self.certificate.to_json() if self.certificate else None,
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
        endos = enumerate_endomorphisms(g, max_vertices)
        core = all(e.is_bijective() for e in endos)
        schmidt = _scan_schmidt_pairs(g, endos, oracular=False) is not None
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
