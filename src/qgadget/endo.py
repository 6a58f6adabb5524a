"""Classical homomorphism machinery and Schmidt-pair certificates.

The central search here looks for two non-identity endomorphisms of a graph
whose supports are disjoint and which are weakly adjacency congruent (WAC) --
adjacent moved points must map to adjacent points.  Such a pair certifies
that the graph carries a non-classical 2-dimensional quantum endomorphism,
which in turn rules out a commutativity gadget for the graph.  When the
supports are additionally disconnected (no edge between them), the oracular
variant is ruled out as well.

All searches are exhaustive and deterministic so that "none exists" verdicts
are trustworthy and certificates are reproducible run to run.

A found map is an integer row, one entry per source vertex: a listing or a
set of first hits is a ``(count, h.n)`` array, int8 below 128 target
vertices and int16 above.  The endomorphisms of a graph come as such blocks,
blocks and rows in lexicographic order; :func:`endomorphism_rows` joins them
into one array.  A full enumeration expands partial maps level by level, one
vertex at a time, in blocks of at most ``_BLOCK`` rows taken depth first,
and yields each block of complete maps as soon as it is finished; besides
the maps it returns, its live memory is about h.n * g.n blocks of ``_BLOCK``
rows, whatever the size of the frontier.  It takes the vertices 0..n-1 in
order, which streams the maps in lexicographic order but leaves dense graphs
with large dead frontiers.  So once it has expanded more than
``_SWITCH_BUDGET`` = 2^13 partial rows, it tries once the search in a
connected vertex order (maximum cardinality, Tarjan and Yannakakis 1984),
unless that order is the identity: its rows, mapped back and sorted, replace
the rest of the stream.  That search is dropped, and the stream resumes,
before it would build more than ``_ORDER_CAP`` = 2^16 rows, partial or
complete.  The rows are the same either way.  A switch holds at most
``_ORDER_CAP`` ordered rows on top of the blocks of both searches; without
one, memory stays at h.n * g.n blocks.  Both bounds are counts, so the
choice is deterministic.  A query for the first hits keeps a domain per
vertex as a Python-int bitmask over ``Graph.nbr_masks`` (a pin is a one-bit
domain), restores arc consistency after each assignment, and backtracks
over the vertices in order, so its hits are still the lexicographically
first maps.

It also skips values by symmetry.  If the swap (a b) of two target vertices
is an automorphism (``Graph.twin_masks``), and neither a nor b lies in an
initial domain other than the whole target, nor is the value of a vertex
before u, then the swap maps every domain onto itself and fixes the partial
map, and it turns every completion with u -> b into one with u -> a.  So
once u -> a has been searched and gave no map, u -> b gives none either,
and is skipped.  Only values without a map are skipped, so the hits are
the same for every limit.  Over K:k, where every two vertices are twins,
this is what keeps the pinned property-(i) tables of cmpl(C:2k) cheap.

The Schmidt-pair search streams.  It takes each non-identity f from the
endomorphism blocks in order and asks the first-hit search for the first
non-identity partner g within per-vertex domains: g fixes supp(f), and in
disconnected mode N(supp(f)) too; in WAC mode a neighbour y of supp(f) keeps
y or goes into N(f(x)) for every x in supp(f) adjacent to y.  So the first
pair found is the lexicographically first, and the search stops there,
without enumerating the rest.  The answer for f depends only on its domain
tuple, so tuples that gave no partner are remembered and skipped.
:func:`nogo_verdict` runs both modes in that one pass.

Finding and checking take separate code paths.  Every listing block and
every set of first hits is re-checked by :func:`_check_maps`, which shares
no code with either search.  Every pair the search finds is re-checked by
:func:`verify_schmidt_certificate`, whose predicates (:func:`is_wac`,
:func:`supports_disjoint`, :func:`supports_disconnected`) work on frozenset
supports and ``Graph.has_edge``.  A failed re-check raises
:class:`VerificationFailure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from .graphs import Graph, _bits, _split_args, adjacency_equal

DEFAULT_MAX_VERTICES = 12


class VerificationFailure(RuntimeError):
    """A construction failed its own internal consistency check."""


@dataclass(frozen=True)
class Endomorphism:
    """A vertex map of a graph that preserves edges."""

    graph: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        m, n = self.mapping, self.graph.n
        if len(m) != n:
            raise ValueError("mapping length does not match vertex count")
        for u, a in enumerate(m):
            if not (0 <= a < n):
                raise ValueError(f"mapped value {a} at vertex {u} out of range")
        adj = self.graph.adj
        for u, v in self.graph.edges():
            if not adj[m[u], m[v]]:
                raise ValueError(f"map does not preserve edge ({u},{v})")


def support(f: Endomorphism) -> frozenset[int]:
    """Vertices moved by f."""
    return frozenset(u for u in range(f.graph.n) if f.mapping[u] != u)


def is_wac(f: Endomorphism, g: Endomorphism) -> bool:
    """Weak adjacency congruence: adjacent moved points map to adjacent points.

    For every x in supp(f) and y in supp(g) with x ~ y, require f(x) ~ g(y).
    """
    if not adjacency_equal(f.graph, g.graph):
        raise ValueError("endomorphisms live on different graphs")
    gr = f.graph
    sf, sg = support(f), support(g)
    for x in sf:
        for y in sg:
            if gr.has_edge(x, y) and not gr.has_edge(f.mapping[x], g.mapping[y]):
                return False
    return True


def supports_disjoint(f: Endomorphism, g: Endomorphism) -> bool:
    if not adjacency_equal(f.graph, g.graph):
        raise ValueError("endomorphisms live on different graphs")
    return not (support(f) & support(g))


def supports_disconnected(f: Endomorphism, g: Endomorphism) -> bool:
    """Disjoint supports with no edge between them."""
    if not supports_disjoint(f, g):
        return False
    gr = f.graph
    return not any(gr.has_edge(x, y) for x in support(f) for y in support(g))


# ---------------------------------------------------------------------------
# Enumeration


class ListingBoundExceeded(ValueError):
    """An exhaustive listing found more maps than its bound allows."""


def enumerate_homomorphisms(h: Graph, g: Graph,
                            pins: Optional[dict[int, int]] = None,
                            limit: Optional[int] = None,
                            max_maps: Optional[int] = None) -> np.ndarray:
    """All homomorphisms h -> g extending the pinned assignments, one map per
    row of a ``(count, h.n)`` integer array, rows in lexicographic order.

    Without a limit the level search of :func:`_homomorphism_blocks` builds
    every map in blocks, switching to a connected vertex order past its
    budget (see the module docstring); with `max_maps` set it stops once
    more than that many have arrived and raises
    :class:`ListingBoundExceeded`.  With a limit the arc-consistent search of
    :func:`_first_homomorphisms` stops at the first `limit` maps.  Either way
    every row is re-checked by :func:`_check_maps`.
    """
    pins = pins or {}
    for u, a in pins.items():
        if not (0 <= u < h.n):
            raise ValueError(f"pinned vertex {u} out of range for instance graph")
        if not (0 <= a < g.n):
            raise ValueError(f"pin target {a} out of range for target graph")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if limit is not None:
        full = (1 << g.n) - 1
        domains = [1 << pins[u] if u in pins else full for u in range(h.n)]
        hits = list(islice(_first_homomorphisms(h.neighbour_lists(), g, domains), limit))
        rows = np.array(hits, dtype=_row_dtype(g)).reshape(len(hits), h.n)
        _check_maps(h, g, rows, "enumerated map", pins)
        return rows
    blocks, count = [], 0
    for block in _checked_blocks(h, g, pins):
        blocks.append(block)
        count += len(block)
        if max_maps is not None and count > max_maps:
            raise ListingBoundExceeded(f"more than {max_maps} homomorphisms")
    return np.concatenate(blocks) if blocks else np.empty((0, h.n), dtype=_row_dtype(g))


def _row_dtype(g: Graph) -> type:
    """The integer type of map rows into g: the smallest holding its vertices."""
    return np.int8 if g.n <= 127 else np.int16


def _check_maps(h: Graph, g: Graph, rows: np.ndarray, what: str,
                pins: dict[int, int | np.ndarray]) -> None:
    """Re-check found maps h -> g, one per row, apart from the searches: every
    value is a vertex of g, ``row[u] == pins[u]`` for each pinned u (one value,
    or one per row), and every edge of h lands on an edge of g.  Each test is
    one batch; the first failing row raises :class:`VerificationFailure`."""
    if rows.size and (rows.min() < 0 or rows.max() >= g.n):
        r = int(np.argmax(((rows < 0) | (rows >= g.n)).any(axis=1)))
        raise VerificationFailure(f"{what} {rows[r].tolist()} leaves the target's vertices")
    missed = np.zeros(len(rows), dtype=bool)
    for u, a in pins.items():
        missed |= rows[:, u] != a
    if missed.any():
        r = int(np.argmax(missed))
        want = tuple(int(a[r] if np.ndim(a) else a) for a in pins.values())
        raise VerificationFailure(f"{what} {rows[r].tolist()} misses its pins {want}")
    iu, iv = h._edge_ends
    # flat indices into adj, which the range test above keeps in bounds
    kept = g.adj.ravel().take(rows[:, iu].astype(np.intp) * g.n + rows[:, iv])
    if not kept.all():
        r, e = np.argwhere(~kept)[0]
        raise VerificationFailure(f"{what} {rows[r].tolist()} does not preserve "
                                  f"edge ({iu[e]},{iv[e]})")


def _first_homomorphisms(nbrs: list[list[int]], g: Graph,
                         domains: list[int]) -> Iterator[tuple[int, ...]]:
    """The homomorphisms h -> g that send each vertex u of h into the bitmask
    ``domains[u]`` of target vertices, one at a time in lexicographic order;
    h is given by its ``Graph.neighbour_lists()``, which a caller running
    many searches on one h decodes once.

    A pin is a one-bit domain.  Arc consistency (D[z] &= N(D[w]) for every
    edge wz, where N(D) is the union of the target neighbourhoods of D) is
    propagated from a queue once at the root and again after each assignment
    (Mackworth's AC-3).  It only removes values that no solution uses, so
    taking vertices 0..n-1 in order and values low bit first still finds the
    maps in lexicographic order.  N(D) is cached per search by the mask, and
    a vertex whose N(D) is the whole target is skipped, which keeps dense
    targets cheap.  A value whose search gave no map rules out its twins at
    the same depth (see the module docstring); the values no twin swap may
    move are those of every initial domain that is not the whole target,
    and those of the vertices already placed.  The search is iterative, so a
    long instance graph cannot exhaust the interpreter's recursion limit.
    """
    n = len(nbrs)
    if n == 0:
        yield ()
        return
    masks = g.nbr_masks
    full = (1 << g.n) - 1
    reach: dict[int, int] = {}

    def propagate(dom: list[int], queue: list[int]) -> bool:
        """Restore arc consistency after the domains in queue shrank; False
        when a domain empties."""
        while queue:
            w = queue.pop()
            d = dom[w]
            nd = reach.get(d)
            if nd is None:
                nd = 0
                for a in _bits(d):
                    nd |= masks[a]
                reach[d] = nd
            if nd == full:
                continue
            for z in nbrs[w]:
                dz = dom[z]
                if dz & ~nd:
                    dz &= nd
                    if not dz:
                        return False
                    dom[z] = dz
                    queue.append(z)
        return True

    dom = list(domains)
    if not propagate(dom, list(range(n))):
        return
    twins = g.twin_masks
    # a twin swap outside every restricted domain maps each domain onto itself
    restricted = 0
    for d in domains:
        if d != full:
            restricted |= d
    # per depth u: the arc-consistent domains before u is assigned, u's
    # untried values, the restricted values and those of the vertices before
    # u, u's last tried value and the hit count before it was tried
    stack = [[dom, dom[0], restricted, 0, 0]]
    hits = 0
    while stack:
        u = len(stack) - 1
        frame = stack[-1]
        dom, untried, fixed, last, mark = frame
        if last and hits == mark and not last & fixed:
            # u -> last had no completion, so neither has u -> b for a twin
            # b of last outside the fixed values (see the module docstring)
            untried &= ~twins[last.bit_length() - 1] | fixed
        if not untried:
            stack.pop()
            continue
        low = untried & -untried
        frame[1], frame[3], frame[4] = untried ^ low, low, hits
        if low != dom[u]:
            # domains are shared down the stack until one shrinks
            dom = dom.copy()
            dom[u] = low
            if not propagate(dom, [u]):
                continue
        if u == n - 1:
            hits += 1
            yield tuple(d.bit_length() - 1 for d in dom)
            continue
        stack.append([dom, dom[u + 1], fixed | low, 0, 0])


# Rows per block of the level search: the largest partial-map array it
# expands at once, which bounds its memory (see the module docstring).
_BLOCK = 2 ** 10
# Partial rows the natural-order search expands before it tries the connected
# vertex order once.  Streams that stop at an early Schmidt pair expand fewer
# (box(C:3,P:3) 5,832, P:11 5,275), full scans of dense graphs more
# (tensor(K:3,K:3) 9,820, Petersen 38,951, cmpl(C:10) 65,701).
_SWITCH_BUDGET = 2 ** 13
# The ordered search gives up, and the natural stream resumes, before it
# would build more rows than this, partial or complete: the bound on its
# expansions and on the maps a switch holds.
_ORDER_CAP = 2 ** 16


def _homomorphism_blocks(h: Graph, g: Graph, pins: dict[int, int]) -> Iterator[np.ndarray]:
    """Every homomorphism h -> g extending the (already validated) pins, one
    map per row of ``(count, h.n)`` integer blocks, yielded as each block is
    finished; the blocks and their rows come in lexicographic order.

    The level search of :func:`_level_blocks` takes the vertices in their
    natural order 0..n-1, which streams the maps in lexicographic order.
    Once it has expanded more than ``_SWITCH_BUDGET`` partial rows, the
    connected order of :func:`_connected_order` is tried once, unless it is
    the identity: :func:`_ordered_rows` searches in that order, maps the
    columns back and sorts the rows, and the rows past those already yielded
    replace the rest of the natural stream.  An ordered search that would
    build more than ``_ORDER_CAP`` rows is dropped and the natural stream
    resumes.  Either way the maps are the same rows in the same order.
    """
    n = h.n
    allowed = np.ones((n, g.n), dtype=bool)
    for u, a in pins.items():
        allowed[u] = False
        allowed[u, a] = True
    natural = _level_blocks(g, allowed, _back_neighbours(h, list(range(n))),
                            expand_budget=_SWITCH_BUDGET)
    yielded = 0
    for block in natural:
        if block is not None:
            yielded += len(block)
            yield block
            continue
        order = _connected_order(h)
        if order == list(range(n)):
            continue
        rows = _ordered_rows(h, g, allowed, order)
        if rows is None:
            continue
        natural.close()
        for i in range(yielded, len(rows), _BLOCK):
            yield rows[i:i + _BLOCK]
        return


def _level_blocks(g: Graph, allowed: np.ndarray, back: list[list[int]],
                  expand_budget: float = float("inf"),
                  build_budget: float = float("inf")) -> Iterator[Optional[np.ndarray]]:
    """The maps of a level search into g over positions 0..n-1, one per row
    of blocks yielded as each is finished, blocks and rows in lexicographic
    order of positions.  Position u takes a value of ``allowed[u]`` adjacent
    to the values of the positions in ``back[u]``, all of them before u.
    Once more than `expand_budget` partial rows have been expanded, and again
    before more than `build_budget` rows (partial or complete) would have
    been built, a None is yielded; the search goes on if it is resumed.

    Partial maps of positions 0..u-1 are extended by position u for a whole
    block at once: the candidate images are u's allowed row ANDed with the
    rows of ``g.adj`` at ``part[:, v]`` for every v in ``back[u]``, and the
    nonzero positions of that block, taken row-major, are the children in
    lexicographic order.  Blocks of at most ``_BLOCK`` rows are expanded
    depth first, which keeps that order and bounds memory.
    """
    n = len(back)
    dtype = _row_dtype(g)
    expanded = built = 0
    # (depth, block) pairs; the top of the stack holds the lexicographically
    # smallest unexpanded block
    stack = [(0, np.zeros((1, 0), dtype=dtype))]
    while stack:
        u, part = stack.pop()
        if u == n:
            yield part
            continue
        expanded += len(part)
        if expanded > expand_budget:
            expand_budget = float("inf")
            yield None
        cand = np.broadcast_to(allowed[u], (len(part), g.n))
        for v in back[u]:
            cand = cand & g.adj.take(part[:, v], axis=0)
        # row-major positions of the candidates: children in lexicographic order
        rows, images = np.divmod(np.flatnonzero(cand), g.n)
        if not len(rows):
            continue
        built += len(rows)
        if built > build_budget:
            build_budget = float("inf")
            yield None
        children = np.empty((len(rows), u + 1), dtype=dtype)
        children[:, :u] = part.take(rows, axis=0)
        children[:, u] = images
        stack.extend((u + 1, children[i:i + _BLOCK])
                     for i in reversed(range(0, len(children), _BLOCK)))


def _back_neighbours(h: Graph, order: list[int]) -> list[list[int]]:
    """Per position i of a vertex order of h, the earlier positions whose
    vertices are adjacent to ``order[i]``."""
    pos = np.empty(h.n, dtype=np.intp)
    pos[order] = np.arange(h.n)
    return [[p for p in pos[h.neighbors(u)].tolist() if p < i]
            for i, u in enumerate(order)]


def _connected_order(h: Graph) -> list[int]:
    """A maximum cardinality search order of h (Tarjan and Yannakakis 1984):
    vertex 0 first, then always the vertex with the most placed neighbours,
    ties to higher degree and then to lower index.  Cycles, paths and
    complete graphs get the identity."""
    n = h.n
    masks = h.nbr_masks
    # placed neighbours * n + degree (< n) for the unplaced vertices, -1 for
    # the placed ones; index() takes the lowest index of the maximum
    key = [m.bit_count() for m in masks]
    order = []
    u = 0
    while len(order) < n:
        order.append(u)
        key[u] = -1
        for v in _bits(masks[u]):
            if key[v] >= 0:
                key[v] += n
        u = key.index(max(key))
    return order


def _ordered_rows(h: Graph, g: Graph, allowed: np.ndarray,
                  order: list[int]) -> Optional[np.ndarray]:
    """Every homomorphism h -> g within `allowed`, found by the level search
    in the vertex order `order`, mapped back to h's vertices and sorted into
    lexicographic order; None, before building them, once the search would
    have built more than ``_ORDER_CAP`` rows.  Every partial row built is
    expanded once and every map is a row built, so the cap bounds both."""
    search = _level_blocks(g, allowed[order], _back_neighbours(h, order),
                           build_budget=_ORDER_CAP)
    blocks = []
    for block in search:
        if block is None:
            search.close()
            return None
        blocks.append(block)
    placed = np.concatenate(blocks) if blocks else np.empty((0, h.n), dtype=_row_dtype(g))
    rows = np.empty_like(placed)
    rows[:, order] = placed
    # lexsort's last key is the primary one
    return rows[np.lexsort(rows.T[::-1])]


def _check_bound(g: Graph, max_vertices: int) -> None:
    """Refuse graphs above the exhaustive-search bound: the verdicts built
    on an endomorphism search depend on its being exhaustive."""
    if g.n > max_vertices:
        raise ValueError(f"graph has {g.n} vertices, above the exhaustive-search bound "
                         f"{max_vertices}; raise max_vertices explicitly to override")


def _checked_blocks(h: Graph, g: Graph, pins: dict[int, int]) -> Iterator[np.ndarray]:
    """The blocks of :func:`_homomorphism_blocks`, each re-checked by
    :func:`_check_maps` as it is yielded."""
    for block in _homomorphism_blocks(h, g, pins):
        _check_maps(h, g, block, "enumerated map", pins)
        yield block


def endomorphism_rows(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES,
                      max_maps: Optional[int] = None) -> np.ndarray:
    """Every endomorphism of g as one row of a ``(count, g.n)`` integer array,
    rows in lexicographic order (the identity among them).

    Refuses graphs above the size bound because the downstream verdicts
    depend on this enumeration being exhaustive, and raises
    :class:`ListingBoundExceeded` once more than `max_maps` maps have
    arrived.  Every row is re-checked by :func:`_check_maps`.
    """
    _check_bound(g, max_vertices)
    return enumerate_homomorphisms(g, g, max_maps=max_maps)


def _all_bijective(rows: np.ndarray) -> bool:
    """True iff every row of an endomorphism array is a permutation."""
    return bool((np.sort(rows, axis=1) == np.arange(rows.shape[1])).all())


def is_core(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """True iff every endomorphism is bijective."""
    return _all_bijective(endomorphism_rows(g, max_vertices))


# ---------------------------------------------------------------------------
# Schmidt certificates


MODE_DISJOINT_WAC = "disjoint_wac"
MODE_DISCONNECTED = "disconnected"


@dataclass(frozen=True)
class SchmidtCertificate:
    """A pair of non-identity endomorphisms witnessing a non-classical
    quantum endomorphism (mode disjoint_wac), or additionally a non-classical
    oracular one (mode disconnected)."""

    f: Endomorphism
    g: Endomorphism
    mode: str
    witness_vertices: tuple[int, int]

    def to_json(self) -> dict:
        return {"f": list(self.f.mapping), "g": list(self.g.mapping),
                "mode": self.mode, "witness_vertices": list(self.witness_vertices)}


def verify_schmidt_certificate(cert: SchmidtCertificate) -> None:
    """Re-check every claim a certificate makes; raises ValueError on failure.

    The Endomorphism constructor re-checks edge preservation, so building the
    certificate's maps from raw tuples already exercises that part.
    """
    f, g = cert.f, cert.g
    Endomorphism(f.graph, f.mapping)
    Endomorphism(g.graph, g.mapping)
    if not support(f) or not support(g):
        raise ValueError("certificate maps must be non-identity")
    if not supports_disjoint(f, g):
        raise ValueError("certificate supports are not disjoint")
    if cert.mode == MODE_DISCONNECTED:
        if not supports_disconnected(f, g):
            raise ValueError("certificate claims disconnected supports but an edge joins them")
    elif cert.mode != MODE_DISJOINT_WAC:
        raise ValueError(f"unknown certificate mode {cert.mode!r}")
    if not is_wac(f, g):
        raise ValueError("certificate maps are not WAC")
    x, y = cert.witness_vertices
    if x not in support(f) or y not in support(g) or x == y:
        raise ValueError("witness vertices do not lie in the respective supports")


def find_schmidt_pair(g: Graph, oracular: bool,
                      max_vertices: int = DEFAULT_MAX_VERTICES) -> Optional[SchmidtCertificate]:
    """Exhaustive search for a Schmidt pair.

    oracular=False asks for disjoint supports plus WAC; oracular=True asks for
    disconnected supports.  The first pair in lexicographic order of (f, g)
    is returned, so output is deterministic.  Returns None only after every
    f has been searched for a partner.
    """
    _check_bound(g, max_vertices)
    return next(_schmidt_certificates(g, _checked_blocks(g, g, {}), (oracular,)), None)


def _schmidt_certificates(g: Graph, blocks: Iterable[np.ndarray],
                          modes: tuple[bool, ...]) -> Iterator[SchmidtCertificate]:
    """The lexicographically first Schmidt pair of each mode (True for
    disconnected, False for disjoint WAC), taking f from the lexicographically
    ordered endomorphism blocks, so one pass can serve several modes.  A
    certificate is yielded as soon as it is found, and its mode is then
    dropped.

    For each non-identity f, and each mode still open, the partner g is the
    first non-identity hit of :func:`_first_homomorphisms` in the domains of
    :func:`_partner_domains`, so the first pair found is the lexicographically
    first.  An f whose domains leave no vertex free to move has no partner
    and is skipped unsearched.  The domains are all the search sees, so a
    domain tuple that gave no partner is remembered and not searched again.
    Every pair is re-checked by :func:`verify_schmidt_certificate`, which
    uses the frozenset predicates instead of the domains; a pair it rejects
    raises :class:`VerificationFailure`.
    """
    n = g.n
    ident = tuple(range(n))
    nbrs = g.neighbour_lists()
    left = list(modes)
    dead: set[tuple[int, ...]] = set()
    for block in blocks:
        moved = block != np.arange(n)
        keep = moved.any(axis=1)
        moved = moved[keep]
        # a partner moves a vertex outside supp(f), and, when oracular,
        # outside N(supp(f)) as well: without such a vertex f has none
        free = {False: (~moved.all(axis=1)).tolist(),
                True: (~(moved | moved @ g.adj).all(axis=1)).tolist()}
        for i, fm in enumerate(block[keep].tolist()):
            sf = [x for x in range(n) if fm[x] != x]
            for oracular in tuple(left):
                if not free[oracular][i]:
                    continue
                dom = _partner_domains(g, fm, sf, oracular)
                if dom in dead:
                    continue
                hm = next((m for m in _first_homomorphisms(nbrs, g, dom) if m != ident), None)
                if hm is None:
                    dead.add(dom)
                    continue
                mode = MODE_DISCONNECTED if oracular else MODE_DISJOINT_WAC
                witness = (sf[0], next(y for y in range(n) if hm[y] != y))
                try:
                    cert = SchmidtCertificate(Endomorphism(g, tuple(fm)), Endomorphism(g, hm),
                                              mode, witness)
                    verify_schmidt_certificate(cert)
                except ValueError as exc:
                    raise VerificationFailure(f"Schmidt pair failed re-verification: {exc}") \
                        from exc
                yield cert
                left.remove(oracular)
                if not left:
                    return


def _partner_domains(g: Graph, fm: list[int], sf: list[int],
                     oracular: bool) -> tuple[int, ...]:
    """Per vertex y, the bitmask of values a partner of the map fm, whose
    support is sf, may give y.  A partner moves no vertex of sf (disjoint
    supports); when oracular, no neighbour of sf either (disconnected
    supports); otherwise a neighbour y of sf keeps y or goes into N(fm[x])
    for every x in sf adjacent to y (WAC).  Every other vertex may go
    anywhere."""
    masks = g.nbr_masks
    full = (1 << g.n) - 1
    moved = near = 0
    for x in sf:
        moved |= 1 << x
        near |= masks[x]
    dom = [1 << y if moved >> y & 1 else full for y in range(g.n)]
    for y in _bits(near & ~moved):
        if oracular:
            dom[y] = 1 << y
        else:
            d = full
            for x in _bits(masks[y] & moved):
                d &= masks[fm[x]]
            dom[y] = d | 1 << y
    return tuple(dom)


# ---------------------------------------------------------------------------
# Verdicts

KIND_NO_GADGET_AT_ALL = "no_gadget_at_all"
KIND_NO_NONORACULAR_GADGET = "no_nonoracular_gadget"
KIND_KNOWN_GADGET = "known_gadget"
KIND_UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    kind: str
    certificate: Optional[SchmidtCertificate]
    known_gadget: Optional[dict]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "certificate": self.certificate.to_json() if self.certificate else None,
                "known_gadget": self.known_gadget,
                "notes": list(self.notes)}


def _known_oracular_gadget(label: str) -> Optional[dict]:
    """Match constructed-family metadata against the families with a known
    oracular gadget: complete graphs K_k (k >= 3) take the complement of the
    2k-cycle, and categorical products of graphs sharing a known gadget keep
    that gadget.  Matching is on labels only -- never via isomorphism testing,
    which would silently widen the claims."""
    label = label.strip()
    if label.startswith("K:"):
        try:
            k = int(label[2:])
        except ValueError:
            return None
        if k >= 3:
            return {"gadget": f"cmpl(C:{2 * k})", "x": 0, "y": 1, "status": "proven_oracular"}
        return None
    if label.startswith("tensor(") and label.endswith(")"):
        try:
            args = _split_args(label[len("tensor("):-1])
        except ValueError:
            return None
        if len(args) != 2:
            return None
        left = _known_oracular_gadget(args[0])
        right = _known_oracular_gadget(args[1])
        if left and right and left["gadget"] == right["gadget"] \
                and (left["x"], left["y"]) == (right["x"], right["y"]):
            return left
    return None


def nogo_verdict(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> Verdict:
    """Combine the Schmidt searches and known positive families into one verdict.

    Disconnected-support pair: no gadget of either kind exists.  Disjoint+WAC
    pair only: no non-oracular gadget; the oracular question stays open (for
    complete graphs a known oracular gadget is attached).  No pair at all in
    an exhaustive search proves nothing by itself, so the verdict is either a
    known positive family or 'unknown'.
    """
    known = _known_oracular_gadget(g.label)
    _check_bound(g, max_vertices)
    # one pass over the endomorphisms serves both modes; a disconnected pair
    # settles the verdict, so the pass stops there
    wac = None
    for cert in _schmidt_certificates(g, _checked_blocks(g, g, {}), (True, False)):
        if cert.mode == MODE_DISCONNECTED:
            return Verdict(KIND_NO_GADGET_AT_ALL, cert, None,
                           ("disconnected-support pair excludes oracular and non-oracular "
                            "commutativity gadgets",))
        wac = cert
    if wac is not None:
        notes = ["disjoint WAC pair excludes a non-oracular commutativity gadget; "
                 "the oracular case is not settled by this certificate"]
        if known:
            notes.append(f"known oracular gadget: ({known['gadget']}, {known['x']}, {known['y']})")
        return Verdict(KIND_NO_NONORACULAR_GADGET, wac, known, tuple(notes))
    if known:
        return Verdict(KIND_KNOWN_GADGET, None, known,
                       ("no Schmidt pair exists (exhaustive search); an oracular gadget "
                        "for this family is known",))
    return Verdict(KIND_UNKNOWN, None, None,
                   ("no Schmidt pair exists (exhaustive search); absence of a pair "
                    "proves nothing, gadget existence remains open",))
