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
Verification trusts neither the walk table that found the lengths nor its
packed-row kernel.  It reads every recorded length off parity distances it
has made sure of itself, by one of two exact routes:

  * Bellman check -- the finder's distances, which the certificate keeps
    but never writes, must satisfy dist[0, a, a] = 0, and for every other
    entry dist[p, a, v] = 1 + the least dist[1 - p, a, u] over the
    neighbours u of v, or NO_WALK where that least entry is NO_WALK.  With
    unit edge weights these equations have one solution, the shortest walks
    on the bipartite double cover.  An entry below its true distance needs
    a neighbouring entry one smaller that is also below its own, and so on
    down to dist[0, a, a], which is exact; an entry above it is undercut
    through the last step of a shortest walk.  The check gathers
    n^2 (degree + 4) entries, in row blocks.
  * Powers -- A^0, A^1, ... up to the largest step, one product per length
    past 1.  Each product is a float32 BLAS product of the 0/1 operands
    thresholded at ``> 0``.  Its entries count walks through a middle
    vertex, integers of at most n <= graphs.MAX_VERTICES = 4096 < 2^24, so
    float32 holds every partial sum exactly, whatever the summation order
    or thread split.

Each recorded length is then held against its pair's distance and its
parity's threshold, in row blocks.  Parity distances are shorter than 2n,
so a length l >= 2n is checked as 2n + l mod 2, and the powers route makes
at most 2n products.

The route is chosen before any work from n, the largest degree and the
largest step, top (:func:`_bellman_cheaper`): the Bellman check's entries
at 1.3 ns plus a 50 us floor, against top + 1 steps at 10 us and top - 1
products of n^3 units at 0.02 ns.  These costs were fitted on a 2-vCPU VM
(numpy 2.4 with its OpenBLAS), where the two routes took, warm and best of
3 (Bellman against powers): C:51 0.07 against 0.5 ms, C:401 1.7 against
560 ms, C:801 5.3 ms against 4.3 s, O:5 0.22 against 0.73 ms (90 ms when
the BLAS threads stall), KG:11,4 5.3 against 1.6 ms, and KG:14,5 0.98
against 0.14 s.  The verdict is the same on either route.  A missing length
within the search bound makes the result inconclusive, not a disproof.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graphs import Graph
from .walks import NO_WALK, walk_table
from .endo import (DEFAULT_MAX_VERTICES, ListingBoundExceeded, _all_bijective,
                   _schmidt_certificates, endomorphism_rows)


@dataclass(frozen=True, eq=False)
class QuantumCoreCertificate:
    """Walk lengths in the layout the module docstring describes, stored as
    read-only copies, and the parity distances of the walk table that found
    them, for the verifier's Bellman check; ``to_json`` leaves them out, and
    a certificate built from bare lengths has none."""

    graph: Graph
    column_lengths: np.ndarray
    cross_lengths: np.ndarray
    dist: Optional[np.ndarray] = field(default=None, repr=False)

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
                "cross_lengths": PairLengths(n, ~self.graph.adj[np.triu_indices(n, 1)],
                                             self.cross_lengths)}


@functools.lru_cache(maxsize=64)
def _pair_keys(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For the pairs a < b of n vertices: their indices in
    ``np.triu_indices(n, 1)`` order sorted by their "a,b" keys, and, in key
    order, one uint8 row per pair holding '"a,b": ' padded with NUL bytes.
    The comma sorts below every digit, so key order is the string order of
    a, then of b."""
    a, b = np.triu_indices(n, 1)
    text_rank = np.empty(n, dtype=np.intp)
    text_rank[sorted(range(n), key=str)] = np.arange(n)
    order = np.lexsort((text_rank[b], text_rank[a])).astype(np.int32)
    firsts = np.array([f'"{x}' for x in range(n)], dtype="S")
    seconds = np.array([f',{y}": ' for y in range(n)], dtype="S")
    keys = np.concatenate([
        firsts[a[order]].view(np.uint8).reshape(len(order), firsts.itemsize),
        seconds[b[order]].view(np.uint8).reshape(len(order), seconds.itemsize)], axis=1)
    for cached in (order, keys):
        cached.setflags(write=False)
    return order, keys


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
        order, keys = _pair_keys(self.n)
        chosen = self.selected[order]
        position = np.cumsum(self.selected) - 1
        return keys[chosen], self.lengths[position[order[chosen]]][:, None]

    def to_json(self) -> dict:
        a, b = np.triu_indices(self.n, 1)
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
    return QuantumCoreCertificate(g, column, cross, dist)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for bool matrices, through float32 BLAS; exact, as the module
    docstring says."""
    return np.matmul(x, y, dtype=np.float32) > 0


# rows are checked in blocks of about this many entries
_BLOCK_ENTRIES = 1 << 18

# per-unit costs of the two routes in nanoseconds, fitted to the anchors in
# the module docstring
_BELLMAN_FLOOR_NS = 50_000
_BELLMAN_NS_PER_ENTRY = 1.3
_POWER_STEP_NS = 10_000
_PRODUCT_NS_PER_UNIT = 0.02


def _bellman_cheaper(n: int, degree: int, top: int) -> bool:
    """Whether the Bellman check costs less than the adjacency powers up to
    length top on n vertices of largest degree `degree`: n^2 (degree + 4)
    entries against top + 1 steps and top - 1 products of n^3 each, each
    count weighted by its cost per unit and the check by its floor."""
    bellman = _BELLMAN_FLOOR_NS + _BELLMAN_NS_PER_ENTRY * n * n * (degree + 4)
    powers = (top + 1) * _POWER_STEP_NS + max(top - 1, 0) * _PRODUCT_NS_PER_UNIT * n ** 3
    return bellman < powers


def _check_parity_distances(g: Graph, dist: np.ndarray) -> None:
    """Raise ValueError unless dist holds g's parity distances, by the
    Bellman equations of the module docstring; no walk table is trusted.
    Rows are taken in blocks of about _BLOCK_ENTRIES entries."""
    n = g.n
    if dist.shape != (2, n, n) or dist.dtype != np.int32:
        raise ValueError(f"parity distances of shape {dist.shape} and type {dist.dtype}, "
                         f"not (2, {n}, {n}) int32")
    counts = np.count_nonzero(g.adj, axis=1)
    isolated = counts == 0
    # row v lists v's neighbours, then repeats its first one up to the
    # largest degree, which leaves a minimum unchanged; an isolated vertex
    # lists vertex 0, and its entries are set to NO_WALK
    width = max(int(counts.max(initial=0)), 1)
    table = np.repeat(np.argmax(g.adj, axis=1)[:, None], width, axis=1)
    rows, cols = np.nonzero(g.adj)
    table[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]] = cols
    per_block = max(1, _BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        for p in (0, 1):
            # 1 + the least entry of the other parity over each column's neighbours
            other = dist[1 - p, lo:hi]
            want = other[:, table[:, 0]]
            for column in table.T[1:]:
                np.minimum(want, other[:, column], out=want)
            np.minimum(want, NO_WALK - 1, out=want)
            want += 1
            want[:, isolated] = NO_WALK
            if p == 0:
                want[np.arange(hi - lo), np.arange(lo, hi)] = 0
            wrong = want != dist[p, lo:hi]
            if wrong.any():
                a, v = np.argwhere(wrong)[0].tolist()
                raise ValueError(f"parity distance [{p}, {lo + a}, {v}] is "
                                 f"{dist[p, lo + a, v]}, the Bellman equations give {want[a, v]}")


def _power_distances(g: Graph, top: int) -> np.ndarray:
    """The parity distances up to length top from powers of the adjacency
    matrix, one product per length past 1; NO_WALK where none is at most
    top."""
    dist = np.full((2, g.n, g.n), NO_WALK, dtype=np.int32)
    power = np.eye(g.n, dtype=bool)
    for ell in range(top + 1):
        if ell:
            power = g.adj if ell == 1 else _product(power, g.adj)
        dist[ell % 2][power & (dist[ell % 2] == NO_WALK)] = ell
    return dist


def _check_lengths(g: Graph, dist: np.ndarray, cert: QuantumCoreCertificate) -> None:
    """Raise ValueError on the first failing pair in row-major order, a
    pair's column check before its cross check, read off parity distances
    that are exact up to every recorded length's step (see the module
    docstring).  Rows are taken in blocks of about _BLOCK_ENTRIES pairs, so
    no temporary holds a value per pair of g."""
    n = g.n
    live = g.adj.any(axis=1)
    # a closed walk of length l >= 1 exists iff l >= closed_from[l % 2], and
    # an adjacent pair is joined at length l iff l >= joined_from[l % 2]
    closed_from = [int(np.min(d.diagonal(), where=live, initial=NO_WALK)) for d in dist]
    joined_from = [int(np.min(d, where=g.adj, initial=NO_WALK)) for d in dist]
    done = {"column": 0, "cross": 0}
    per_block = max(1, _BLOCK_ENTRIES // max(n, 1))
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        upper = np.arange(n) > np.arange(lo, hi)[:, None]
        first = None
        for kind, pairs, recorded, forbidden_from in (
                ("column", upper, cert.column_lengths, closed_from),
                ("cross", upper & ~g.adj[lo:hi], cert.cross_lengths, joined_from)):
            lengths = recorded[done[kind]:done[kind] + np.count_nonzero(pairs)].astype(np.int64)
            done[kind] += len(lengths)
            odd = lengths & 1
            # past 2n - 1 only a length's parity counts: distances are below 2n
            steps = np.minimum(lengths, 2 * n + odd)
            walk = np.where(odd, dist[1, lo:hi][pairs], dist[0, lo:hi][pairs]) <= steps
            passed = walk & (steps < np.where(odd, forbidden_from[1], forbidden_from[0]))
            if not passed.all():
                i = int(np.argmin(passed))
                a, b = divmod(int(np.flatnonzero(pairs)[i]), n)
                found = (lo + a, b, kind == "cross", bool(walk[i]), int(lengths[i]))
                first = found if first is None else min(first, found)
        if first is not None:
            a, b, cross, walk, ell = first
            if not walk:
                what = f"no walk of length {ell}"
            elif cross:
                what = f"adjacent pair joined at length {ell}"
            else:
                what = f"closed walk of length {ell} exists"
            raise ValueError(f"{'cross' if cross else 'column'} pair ({a},{b}): {what}")


def verify_quantum_core_certificate(g: Graph, cert: QuantumCoreCertificate) -> None:
    """Re-verify every recorded length, independent of the walk table's
    search; raises ValueError when an array does not hold one length per
    pair of g, else on the first failing pair in row-major order, a pair's
    column check before its cross check.

    The parity distances come from one of the module docstring's two exact
    routes, chosen by :func:`_bellman_cheaper`: the certificate's table (a
    new one when it holds none for g) checked against the Bellman
    equations, or the powers of the adjacency matrix up to the largest
    step."""
    n_pairs = g.n * (g.n - 1) // 2
    for kind, recorded, pairs in (("column", cert.column_lengths, n_pairs),
                                  ("cross", cert.cross_lengths, n_pairs - g.num_edges)):
        if len(recorded) != pairs:
            raise ValueError(f"certificate holds {len(recorded)} {kind} lengths "
                             f"for {pairs} {kind} pairs")
    top = min(max(int(lengths.max(initial=0))
                  for lengths in (cert.column_lengths, cert.cross_lengths)), 2 * g.n + 1)
    if _bellman_cheaper(g.n, int(g.adj.sum(axis=1).max(initial=0)), top):
        dist = cert.dist if cert.graph is g and cert.dist is not None else walk_table(g).dist
        _check_parity_distances(g, dist)
    else:
        dist = _power_distances(g, top)
    _check_lengths(g, dist, cert)


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
                          max_vertices: int = DEFAULT_MAX_VERTICES,
                          max_maps: Optional[int] = None) -> ClassicalOnlyReport:
    """Chain the three links needed to conclude "only classical endomorphisms":
    a quantum-core certificate, classical coreness, and the externally sourced
    no-quantum-symmetry input.  The conclusion is emitted only when all three
    hold, with the external assumption flagged as an input, never validated.
    Classical coreness is left unestablished on a graph of more than
    `max_vertices` vertices or more than `max_maps` endomorphisms.
    """
    if lmax is None:
        lmax = 2 * g.n + 2
    cert = quantum_core_certificate(g, lmax)
    core: Optional[bool] = None
    schmidt: Optional[bool] = None
    rows = None
    if g.n <= max_vertices:
        with contextlib.suppress(ListingBoundExceeded):
            rows = endomorphism_rows(g, max_vertices, max_maps)
    if rows is not None:
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
