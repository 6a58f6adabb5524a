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

A certificate holds the lengths as two read-only 1-D integer arrays over the
pairs a < b in ``np.triu_indices(n, 1)`` order: ``column_lengths`` has one
entry per pair, ``cross_lengths`` one per non-adjacent pair.  Finder,
verifier and report all read that layout; only ``to_json`` names the pairs,
as "a,b" keys, through ``PairLengths``: the report writer takes its key
bytes and lengths as arrays, and its own ``to_json`` gives the plain dict.

Both conditions are threshold conditions per parity: a walk a -> a' of
length l exists iff l reaches the pair's parity distance, and "some closed
walk" / "some adjacent pair joined" hold from a per-parity threshold on.  So
the minimal valid length of every pair is read off the walk table's parity
distances in O(n^2), whatever the search bound.

The module stays entirely combinatorial: it never touches algebra elements.
Verification does not trust the table that found the lengths, nor its
packed-row kernel: it re-checks every recorded length with powers of the
adjacency matrix by repeated squaring, held as bool matrices.  Each product
is a float32 BLAS product of the 0/1 operands thresholded at ``> 0``.  Its
entries count walks through a middle vertex, integers of at most
n <= graphs.MAX_VERTICES = 4096 < 2^24, so float32 holds every partial sum
exactly, whatever the summation order or thread split; the trusted
computing base is that thresholded product.  The recorded lengths are
grouped, so each distinct length costs one power and one batched check of
all its pairs.  A missing length within the search bound makes the result
inconclusive, not a disproof.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph
from .walks import NO_WALK, walk_table
from .endo import DEFAULT_MAX_VERTICES, _all_bijective, _schmidt_certificates, endomorphism_rows


@dataclass(frozen=True, eq=False)
class QuantumCoreCertificate:
    """Walk lengths in the layout the module docstring describes, stored as
    read-only copies."""

    graph: Graph
    column_lengths: np.ndarray
    cross_lengths: np.ndarray

    def __post_init__(self):
        for name in ("column_lengths", "cross_lengths"):
            lengths = np.array(getattr(self, name))
            # numpy mixes uint64 with signed integers into float64
            if (lengths.ndim != 1 or lengths.dtype.kind not in "iu"
                    or not np.can_cast(lengths.dtype, np.int64)):
                raise ValueError(f"{name} must be a 1-D array of integers, got "
                                 f"{lengths.ndim}-D {lengths.dtype}")
            lengths.setflags(write=False)
            object.__setattr__(self, name, lengths)

    def to_json(self) -> dict:
        n = self.graph.n
        return {"graph": self.graph.label,
                "column_lengths": PairLengths(n, np.ones(n * (n - 1) // 2, dtype=bool),
                                              self.column_lengths),
                "cross_lengths": PairLengths(n, ~self.graph.adj[_pair_keys(n)[0]],
                                             self.cross_lengths)}


@functools.lru_cache(maxsize=64)
def _pair_keys(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the pairs a < b of n vertices: the (n, n) mask that picks them
    in ``np.triu_indices(n, 1)`` order, their indices in that order sorted
    by their "a,b" keys, and, in key order, one uint8 row per pair holding
    '"a,b": ' padded with NUL bytes.  The comma sorts below every digit, so
    key order is the string order of a, then of b."""
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    a, b = np.nonzero(upper)
    text_rank = np.empty(n, dtype=np.intp)
    text_rank[sorted(range(n), key=str)] = np.arange(n)
    order = np.lexsort((text_rank[b], text_rank[a])).astype(np.int32)
    firsts = np.array([f'"{x}' for x in range(n)], dtype="S")
    seconds = np.array([f',{y}": ' for y in range(n)], dtype="S")
    keys = np.concatenate([
        firsts[a[order]].view(np.uint8).reshape(len(order), firsts.itemsize),
        seconds[b[order]].view(np.uint8).reshape(len(order), seconds.itemsize)], axis=1)
    for cached in (upper, order, keys):
        cached.setflags(write=False)
    return upper, order, keys


@dataclass(frozen=True, eq=False)
class PairLengths:
    """One length per selected pair a < b of n vertices, written as an
    object with "a,b" keys: ``selected`` masks the pairs in
    ``np.triu_indices(n, 1)`` order and ``lengths`` holds theirs, in that
    order."""

    n: int
    selected: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        if int(self.selected.sum()) != len(self.lengths):
            raise ValueError(f"{len(self.lengths)} lengths for {int(self.selected.sum())} pairs")

    def key_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The selected pairs in key order: their key rows (see _pair_keys)
        and their lengths as a ``(k, 1)`` array."""
        _, order, keys = _pair_keys(self.n)
        chosen = self.selected[order]
        position = np.cumsum(self.selected) - 1
        return keys[chosen], self.lengths[position[order[chosen]]][:, None]

    def to_json(self) -> dict:
        a, b = np.nonzero(_pair_keys(self.n)[0])
        return {f"{x},{y}": v for x, y, v in zip(a[self.selected].tolist(),
                                                  b[self.selected].tolist(),
                                                  self.lengths.tolist())}


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
    return QuantumCoreCertificate(g, column, cross)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for bool matrices, through float32 BLAS; exact, as the module
    docstring says."""
    return np.matmul(x, y, dtype=np.float32) > 0


def _power(squares: list[np.ndarray], ell: int) -> np.ndarray:
    """adj^ell in bool dtype by repeated squaring; squares[i] is adj^(2^i)
    and is extended in place as needed."""
    out = None
    bit = 0
    while ell >> bit:
        if bit == len(squares):
            squares.append(_product(squares[-1], squares[-1]))
        if (ell >> bit) & 1:
            out = squares[bit] if out is None else _product(out, squares[bit])
        bit += 1
    return np.eye(len(squares[0]), dtype=bool) if out is None else out


def verify_quantum_core_certificate(g: Graph, cert: QuantumCoreCertificate) -> None:
    """Re-verify every recorded length with powers of the adjacency matrix,
    independent of the walk table; raises ValueError when an array does not
    hold one length per pair of g, else on the first failing pair in
    row-major order, a pair's column check before its cross check.

    Each product is ``np.matmul(x, y, dtype=np.float32) > 0`` on bool
    operands: its entries are integers of at most n < 2^24, exact in
    float32, so the threshold gives the boolean product.

    The recorded lengths are grouped: the distinct ones are taken in
    ascending order, each power is the one before times a cached power of
    the difference, and each length checks all of its pairs at once."""
    a, b = np.triu_indices(g.n, 1)
    cross = np.flatnonzero(~g.adj[a, b])
    for kind, recorded, pairs in (("column", cert.column_lengths, len(a)),
                                  ("cross", cert.cross_lengths, len(cross))):
        if len(recorded) != pairs:
            raise ValueError(f"certificate holds {len(recorded)} {kind} lengths "
                             f"for {pairs} {kind} pairs")
    # pair i's column check has key 2i, its cross check 2i+1
    keys = np.concatenate([2 * np.arange(len(a)), 2 * cross + 1])
    lengths = np.concatenate([cert.column_lengths, cert.cross_lengths])
    # per key: 0 the check passes, 1 no walk, 2 a forbidden walk exists
    status = np.zeros(2 * len(a), dtype=np.int8)
    status[keys[lengths < 0]] = 1
    distinct, which = np.unique(lengths, return_inverse=True)
    eu, ev = np.nonzero(g.adj)
    squares = [g.adj]
    steps: dict[int, np.ndarray] = {}
    power, at = None, 0
    for k, ell in enumerate(distinct.tolist()):
        if ell < 0:
            continue
        if power is None:
            power = _power(squares, ell)
        else:
            diff = ell - at
            if diff not in steps:
                steps[diff] = _power(squares, diff)
            power = _product(power, steps[diff])
        at = ell
        key = keys[which == k]
        forbidden = np.where(key % 2, power[eu, ev].any(), power.diagonal().any())
        status[key] = np.where(power[a[key // 2], b[key // 2]], 2 * forbidden, 1)
    failed = np.flatnonzero(status)
    if len(failed):
        key = int(failed[0])
        x, y, ell = a[key // 2], b[key // 2], int(lengths[keys == key][0])
        if status[key] == 1:
            what = f"no walk of length {ell}"
        elif key % 2:
            what = f"adjacent pair joined at length {ell}"
        else:
            what = f"closed walk of length {ell} exists"
        raise ValueError(f"{'cross' if key % 2 else 'column'} pair ({x},{y}): {what}")


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
