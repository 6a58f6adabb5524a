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
Verification does not trust the table that found the lengths, nor its
packed-row kernel: it re-checks every recorded length with dense bool-dtype
powers of the adjacency matrix (products by repeated squaring, which cannot
overflow), so the trusted computing base is the boolean matrix power.  The
recorded lengths are grouped, so each distinct length costs one power and
one batched check of all its pairs.  A missing length within the search
bound makes the result inconclusive, not a disproof.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Optional

import numpy as np

from .graphs import Graph
from .walks import NO_WALK, walk_table
from .endo import DEFAULT_MAX_VERTICES, _all_bijective, _schmidt_certificates, endomorphism_rows


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


_MISSING = object()


def _recorded(kind: str, lengths: dict, a: np.ndarray, b: np.ndarray) -> tuple[list, Optional[str]]:
    """The lengths recorded for the pairs (a[i], b[i]), in order, up to the
    first one that is missing or not a nonnegative integer, and the message
    that one raises (None if there is none)."""
    # zip hands map one reused tuple, so the lookups allocate no keys
    vals = list(map(lengths.get, zip(a.tolist(), b.tolist()), repeat(_MISSING)))
    if set(map(type, vals)) <= {int} and min(vals, default=0) >= 0:
        return vals, None
    for i, ell in enumerate(vals):
        if ell is _MISSING:
            return vals[:i], f"{kind} pair ({a[i]},{b[i]}) missing"
        if not isinstance(ell, (int, np.integer)) or ell < 0:
            return vals[:i], f"{kind} pair ({a[i]},{b[i]}): no walk of length {ell}"
    return vals, None


def verify_quantum_core_certificate(g: Graph, cert: QuantumCoreCertificate) -> None:
    """Re-verify every recorded length with bool-dtype powers of the adjacency
    matrix, independent of the walk table; raises ValueError on the first
    failing pair in row-major order, including missing pairs, a pair's column
    check before its cross check.

    The recorded lengths are grouped: the distinct ones are taken in
    ascending order, each power is the one before times a cached power of
    the difference, and each length checks all of its pairs at once."""
    if not cert.column_lengths and not cert.cross_lengths:
        if g.n > 1:
            raise ValueError("certificate is empty")
        return
    a, b = np.triu_indices(g.n, 1)
    cross = np.flatnonzero(~g.adj[a, b])
    # checks are made in key order: pair i's column check has key 2i, its
    # cross check 2i+1.  first is the key of the first failure found so far.
    column_vals, error = _recorded("column", cert.column_lengths, a, b)
    first = 2 * len(column_vals)
    cross_vals, cross_error = _recorded("cross", cert.cross_lengths, a[cross], b[cross])
    if cross_error and 2 * cross[len(cross_vals)] + 1 < first:
        first, error = 2 * int(cross[len(cross_vals)]) + 1, cross_error
    distinct = sorted(set(column_vals).union(cross_vals))
    where = {ell: k for k, ell in enumerate(distinct)}
    # per check, the index in distinct of its recorded length
    column_at = np.fromiter(map(where.__getitem__, column_vals), np.int32, len(column_vals))
    cross_at = np.fromiter(map(where.__getitem__, cross_vals), np.int32, len(cross_vals))
    eu, ev = np.nonzero(g.adj)
    squares = [g.adj]
    steps: dict[int, np.ndarray] = {}
    power, at = None, 0
    for k, ell in enumerate(distinct):
        # the pairs checked at this length whose keys come before first
        col = np.flatnonzero(column_at[:(first + 1) // 2] == k)
        crs = np.flatnonzero(cross_at[:np.searchsorted(cross, first // 2)] == k)
        if not len(col) and not len(crs):
            continue
        if power is None:
            power = _bool_power(squares, ell)
        else:
            diff = ell - at
            if diff not in steps:
                steps[diff] = _bool_power(squares, diff)
            power = power @ steps[diff]
        at = ell
        # the failing ones: all of them if the length is forbidden, else
        # those without a walk
        if not power.diagonal().any():
            col = col[~power[a[col], b[col]]]
        if not power[eu, ev].any():
            crs = crs[~power[a[cross[crs]], b[cross[crs]]]]
        if len(col) and (not len(crs) or col[0] <= cross[crs[0]]):
            first, shown, kind = 2 * int(col[0]), column_vals[col[0]], "column"
        elif len(crs):
            first, shown, kind = 2 * int(cross[crs[0]]) + 1, cross_vals[crs[0]], "cross"
        else:
            continue
        x, y = a[first // 2], b[first // 2]
        if not power[x, y]:
            error = f"{kind} pair ({x},{y}): no walk of length {shown}"
        elif kind == "column":
            error = f"column pair ({x},{y}): closed walk of length {shown} exists"
        else:
            error = f"cross pair ({x},{y}): adjacent pair joined at length {shown}"
    if error is not None:
        raise ValueError(error)


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
        schmidt = next(_schmidt_certificates(g, [rows], (False,)), None) is not None
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
