"""Walk-existence tables, distances, girth variants, and parity-based decisions.

Every criterion in this package only asks "is there a walk of length l from
u to v", and the answer is settled by two shortest-walk lengths per pair: a
walk of length l exists exactly when l is at least the length of the
shortest walk of the same parity (a walk with an edge can be padded by going
back and forth along it).  The one exception is an isolated vertex, whose
only walk is the one of length 0.  So a table holds two parity-distance
matrices plus a per-vertex "has a neighbour" mask, whatever the length bound.
They are filled by iterating reach matrices, held as bit-packed uint64 rows,
until the reach sequence repeats with period 2.  One step ORs together the
rows of each vertex's neighbours (a ``reduceat`` over CSR neighbour lists),
which costs O(m * n/64) words where a dense matrix product costs n^3, and
like a bool product it cannot overflow.  Girth and odd girth come from a
separate layered BFS over neighbour bitmasks, whose odd girth is checked
again by a parent-tracking BFS on the bipartite double cover from one root,
so that table-vs-path identities can be cross-checked for real; a failed
cross-check raises :class:`VerificationFailure`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .endo import VerificationFailure
from .graphs import Graph, _bits

Length = Union[int, float]  # int, or math.inf for "no such walk/cycle"

AUTO = "auto"

NO_WALK = np.iinfo(np.int32).max  # dist entry for "no walk of this parity"


@dataclass(frozen=True, eq=False)
class WalkTable:
    """Walk existence for every length 0 <= l <= lmax.

    dist[p, u, v] is the length of the shortest walk u -> v of parity p, or
    NO_WALK; has_neighbour[u] is False exactly for isolated vertices.  Above
    ``settled``, the largest finite entry of dist, walk existence depends
    only on the parity of the length.  ``steps`` counts the walk-length
    steps that filled dist, each one OR of packed neighbour rows.
    """

    graph: Graph
    lmax: int
    dist: np.ndarray
    has_neighbour: np.ndarray
    settled: int
    steps: int

    def _check_length(self, length: int) -> None:
        if not (0 <= length <= self.lmax):
            raise ValueError(f"walk length {length} outside table range 0..{self.lmax}")

    def has_walk(self, length: int, u: int, v: int) -> bool:
        self._check_length(length)
        # lengths beyond int32 compare as NO_WALK - 1, far above any distance
        if self.dist[length % 2, u, v] > min(length, NO_WALK - 1):
            return False
        return length == 0 or bool(self.has_neighbour[u])

    def reach(self, length: int) -> np.ndarray:
        """Boolean n x n matrix: [u, v] == there is a walk of this length u -> v."""
        self._check_length(length)
        out = self.dist[length % 2] <= min(length, NO_WALK - 1)
        if length:
            out &= self.has_neighbour[:, None]
        return out


def walk_table(g: Graph, lmax: Union[int, str] = AUTO) -> WalkTable:
    """Parity-distance walk table answering queries up to lmax (default
    2n+2).  Its cost and size do not depend on lmax: the reach rows are
    iterated only until they repeat with period 2."""
    if lmax == AUTO:
        lmax = 2 * g.n + 2
    if not isinstance(lmax, int) or lmax < 0:
        raise ValueError(f"lmax must be a nonnegative integer or 'auto', got {lmax!r}")
    n = g.n
    dist = np.full((2, n, n), NO_WALK, dtype=np.int32)
    np.fill_diagonal(dist[0], 0)
    settled = 0
    steps = 0
    has_neighbour = g.adj.any(axis=1)
    # reach_l[u, v] == there is a walk of length l from u to v.  Its rows are
    # bit-packed, bit v of row u in word v // 64, and reach_l[u] is the OR of
    # reach_{l-1}[k] over the neighbours k of u: one reduceat over each row
    # block's neighbour lists (CSR order).  reduceat cannot take an empty
    # segment, so an isolated vertex lists the extra row n, which stays 0.
    lists = np.concatenate([g.adj, ~has_neighbour[:, None]], axis=1)
    nbr = np.nonzero(lists)[1]
    counts = np.count_nonzero(lists, axis=1)
    starts = np.zeros(n + 1, dtype=nbr.dtype)
    np.cumsum(counts, out=starts[1:])
    words = max(1, -(-n // 64))
    # rows per block, so that a block's gather holds at most about dist.nbytes
    per_block = max(1, dist.nbytes // (8 * words * int(counts.max(initial=1))))
    blocks = []
    for lo in range(0, n, per_block):
        hi = min(lo + per_block, n)
        blocks.append((lo, hi, nbr[starts[lo]:starts[hi]], starts[lo:hi] - starts[lo]))
    # little-endian words, so that their bytes unpack in bit order
    last = np.zeros((n + 1, 8 * words), dtype=np.uint8)
    last[:n, :(n + 7) // 8] = np.packbits(np.eye(n, dtype=bool), axis=1, bitorder="little")
    last = last.view("<u8")
    # unseen[p] keeps the bits of the pairs with no walk of parity p yet
    unseen = [np.full_like(last, ~np.uint64(0)) for _ in range(2)]
    unseen[0] ^= last
    before = None
    # reach_l equals reach_{l-2} from some l on, and every later step repeats
    # with period 2.  Parity distances are shortest paths in the bipartite
    # double cover, so below 2n, and the loop always ends at that break.
    for ell in range(1, 2 * n + 3):
        cur = np.zeros_like(last)
        for lo, hi, gather, offsets in blocks:
            np.bitwise_or.reduceat(last[gather], offsets, axis=0, out=cur[lo:hi])
        steps += 1
        if before is not None and (cur == before).all():
            break
        new = cur & unseen[ell % 2]
        if new.any():
            unseen[ell % 2] ^= new
            bits = np.unpackbits(new[:n].astype("<u8", copy=False).view(np.uint8), axis=1,
                                 count=n, bitorder="little")
            dist[ell % 2][bits.view(bool)] = ell
            settled = ell
        before, last = last, cur
    dist.setflags(write=False)
    has_neighbour.setflags(write=False)
    return WalkTable(g, lmax, dist, has_neighbour, settled, steps)


def distance(t: WalkTable, u: int, v: int) -> Length:
    """Length of the shortest walk u -> v; math.inf if v is unreachable.

    Raises if the pair is reachable but only beyond the table's lmax, since
    reporting infinity there would be a lie.
    """
    d = int(t.dist[:, u, v].min())
    if d == NO_WALK:
        return math.inf
    if d > t.lmax:
        raise ValueError(f"pair ({u},{v}) reachable but beyond lmax={t.lmax}; "
                         f"rebuild with larger lmax")
    return d


@dataclass(frozen=True)
class GirthReport:
    girth: Length
    odd_girth: Length
    odd_walk_girth: Length
    diameter: Length


def _layered_girths(g: Graph) -> tuple[Length, Length, int]:
    """Girth, odd girth, and a root of a shortest odd cycle (-1 if none).

    One layered BFS per root over ``Graph.nbr_masks`` (Itai and Rodeh's
    minimum-circuit search).  An edge inside layer k closes an odd walk of
    length 2k+1 through the root, and a layer-(k+1) vertex with two
    neighbours in layer k closes a walk of length 2k+2; either contains a
    cycle no longer than that, so every hit bounds the girth, and an odd hit
    the odd girth.  Shortest cycles and shortest odd cycles are isometric,
    so a root on one of them hits its exact length.  A root stops once 2k+1
    is at least both bests, since no later layer can improve either.
    """
    masks = g.nbr_masks
    girth: Length = math.inf
    odd: Length = math.inf
    odd_root = -1
    for root in range(g.n):
        seen = frontier = 1 << root
        k = 0
        # odd >= girth, so this asks for 2k+1 below both bests
        while frontier and 2 * k + 1 < odd:
            layer = _bits(frontier)
            if any(masks[v] & frontier for v in layer):
                # an edge inside layer k; no later layer of this root does better
                girth = min(girth, 2 * k + 1)
                odd, odd_root = 2 * k + 1, root
                break
            # once: layer k+1; twice: its vertices with two neighbours in layer k
            once = twice = 0
            for v in layer:
                nbrs = masks[v] & ~seen
                twice |= once & nbrs
                once |= nbrs
            if twice:
                girth = min(girth, 2 * k + 2)
            seen |= once
            frontier = once
            k += 1
    return girth, odd, odd_root


def _shortest_odd_closed_walk(g: Graph, s: int) -> Optional[list[int]]:
    """Shortest odd closed walk through s, found by BFS on the bipartite
    double cover with parent tracking.

    Returns the walk as a vertex sequence v0, ..., vL with v0 == vL == s and
    L odd, or None when no odd closed walk passes through s.  Independent of
    the layered search and of any walk table.
    """
    # states (v, parity); search the first odd-parity return to s
    dist = {(s, 0): 0}
    pred: dict[tuple[int, int], tuple[int, int]] = {}
    q = deque([(s, 0)])
    target = (s, 1)
    while q:
        state = q.popleft()
        if state == target:
            break
        u, par = state
        for w in g.neighbors(u):
            nxt = (int(w), par ^ 1)
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                pred[nxt] = state
                q.append(nxt)
    if target not in dist:
        return None
    walk = [target]
    while walk[-1] != (s, 0):
        walk.append(pred[walk[-1]])
    return [v for v, _ in reversed(walk)]


def _extract_odd_cycle(g: Graph, walk: list[int]) -> list[int]:
    """Split an odd closed walk at repeated vertices until a simple odd cycle
    remains.  The result is a cyclic path whose length is at most the walk's."""
    cur = walk
    while True:
        length = len(cur) - 1
        interior = cur[:-1]
        seen: dict[int, int] = {}
        split = None
        for idx, v in enumerate(interior):
            if v in seen:
                split = (seen[v], idx)
                break
            seen[v] = idx
        if split is None:
            if length % 2 != 1 or length < 3:
                raise VerificationFailure(f"walk splitting left a closed walk of length {length}, "
                                          f"not an odd cycle")
            return cur
        i, j = split
        piece_a = cur[i:j + 1]           # closed walk of length j-i
        piece_b = cur[:i + 1] + cur[j + 1:]  # closed walk of length L-(j-i)
        cur = piece_a if (j - i) % 2 == 1 else piece_b
        # re-root so the repeated endpoint is explicit
        if cur[0] != cur[-1]:
            raise VerificationFailure("walk splitting produced a non-closed piece")


def girths(g: Graph) -> GirthReport:
    """Girth, odd girth, odd walk girth, and diameter.

    Girth and odd girth come from the layered bitmask BFS.  The odd girth is
    cross-checked by a second path: a parent-tracking BFS on the bipartite
    double cover from the root of the best odd hit, whose odd closed walk is
    split into a simple odd cycle of the same length with every edge present.
    odd_walk_girth comes from the diagonal of the walk table's odd parity
    distances, so its equality with odd_girth is a genuine cross-check
    rather than a tautology.  The diameter is the largest shortest-walk
    length of the same table.
    """
    girth, odd_girth, root = _layered_girths(g)
    if root >= 0:
        witness = _shortest_odd_closed_walk(g, root)
        if witness is None:
            raise VerificationFailure(f"no odd closed walk through root {root}")
        cyc = _extract_odd_cycle(g, witness)
        clen = len(cyc) - 1
        # a cycle is itself a closed walk, so the extracted one cannot be shorter
        if not clen == len(witness) - 1 == odd_girth:
            raise VerificationFailure(f"odd cycle of length {clen} from root {root}, "
                                      f"layered search found {odd_girth}")
        for a, b in zip(cyc, cyc[1:]):
            if not g.has_edge(a, b):
                raise VerificationFailure(f"odd cycle {cyc} from root {root} uses the "
                                          f"non-edge ({a},{b})")

    t = walk_table(g)
    shortest_odd_closed = int(t.dist[1].diagonal().min(initial=NO_WALK))
    odd_walk_girth: Length = math.inf if shortest_odd_closed == NO_WALK else shortest_odd_closed

    shortest = t.dist.min(axis=0)
    diameter: Length = math.inf
    if g.n and not (shortest == NO_WALK).any():
        diameter = int(shortest.max())
    return GirthReport(girth, odd_girth, odd_walk_girth, diameter)


def is_bipartite(g: Graph) -> tuple[bool, Optional[list[int]]]:
    """2-colorability; on success also returns a colour per vertex (0/1)."""
    colour = [-1] * g.n
    for s in range(g.n):
        if colour[s] != -1:
            continue
        colour[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.neighbors(u):
                v = int(v)
                if colour[v] == -1:
                    colour[v] = colour[u] ^ 1
                    q.append(v)
                elif colour[v] == colour[u]:
                    return False, None
    return True, colour


def is_oracularisable(g: Graph) -> tuple[bool, Optional[tuple[int, int, int, int, int]]]:
    """True iff the graph has no cyclic path of length 4.

    On failure the lexicographically first cycle (a, b, c, d, a) with four
    distinct vertices is returned as a witness.
    """
    masks = g.nbr_masks
    for a in range(g.n):
        for b in _bits(masks[a]):
            for c in _bits(masks[b]):
                if c == a:
                    continue
                # every d adjacent to both a and c other than b, at once
                ds = masks[a] & masks[c] & ~(1 << b)
                if ds:
                    return False, (a, b, c, (ds & -ds).bit_length() - 1, a)
    return True, None


def decide_bipartite_target(h: Graph, g: Graph) -> bool:
    """Decide existence of a quantum homomorphism h -> g for bipartite g.

    For bipartite targets the quantum and classical questions coincide, so
    the answer is purely classical: an edgeless target admits a morphism iff
    h is edgeless, and otherwise the answer is bipartiteness of h.
    """
    bip, _ = is_bipartite(g)
    if not bip:
        raise ValueError("target graph is not bipartite")
    if g.num_edges == 0:
        return h.num_edges == 0
    return is_bipartite(h)[0]
