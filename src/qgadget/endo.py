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

The endomorphism set of a graph is one integer array, one map per row, rows
in lexicographic order (:func:`endomorphism_rows`).  A full enumeration
expands partial maps level by level, one vertex at a time, in blocks of at
most ``_BLOCK`` rows taken depth first; besides the maps it returns, its
live memory is about h.n * g.n blocks of ``_BLOCK`` rows, whatever the size
of the frontier.  A query with a limit wants the first hits only: it keeps
a domain per vertex as a Python-int bitmask over ``Graph.nbr_masks``,
restores arc consistency after each assignment, and backtracks over the
vertices in order, so its hits are still the lexicographically first maps.

It also skips values by symmetry.  If the swap (a b) of two target vertices
is an automorphism (``Graph.twin_masks``), and neither a nor b is a pin value
or the value of a vertex before u, then the swap fixes the pins and the
partial map, and it turns every completion with u -> b into one with u -> a.
So once u -> a has been searched and gave no map, u -> b gives none either,
and is skipped.  Only values without a map are skipped, so the hits are
the same for every limit.  Over K:k, where every two vertices are twins,
this is what keeps the pinned property-(i) tables of cmpl(C:2k) cheap.

Finding and checking take separate code paths.  Every enumerated
endomorphism is re-checked against ``Graph.adj`` in one batched edge test.
The Schmidt-pair scan rules out partners by support bitmasks over the rows,
and every pair it finds is re-checked by :func:`verify_schmidt_certificate`,
whose predicates (:func:`is_wac`, :func:`supports_disjoint`,
:func:`supports_disconnected`) work on frozenset supports and
``Graph.has_edge``.  A failed re-check raises :class:`VerificationFailure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, _bits, adjacency_equal

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

    def __call__(self, u: int) -> int:
        return self.mapping[u]

    def is_identity(self) -> bool:
        return all(self.mapping[u] == u for u in range(self.graph.n))

    def is_bijective(self) -> bool:
        return len(set(self.mapping)) == self.graph.n

    def compose(self, other: "Endomorphism") -> "Endomorphism":
        """self after other."""
        return Endomorphism(self.graph, tuple(self.mapping[other.mapping[u]]
                                              for u in range(self.graph.n)))

    def power(self, k: int) -> "Endomorphism":
        out = identity_endomorphism(self.graph)
        for _ in range(k):
            out = self.compose(out)
        return out


def identity_endomorphism(g: Graph) -> Endomorphism:
    return Endomorphism(g, tuple(range(g.n)))


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


def enumerate_homomorphisms(h: Graph, g: Graph,
                            pins: Optional[dict[int, int]] = None,
                            limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """All homomorphisms h -> g extending the pinned assignments.

    Results come out in lexicographic order of the map tuple; with a limit,
    the first `limit` maps in that order are returned.  Without a limit every
    map is wanted, and the level search of :func:`_homomorphism_rows` builds
    them in blocks.  With a limit the first hits are wanted, and the
    arc-consistent search of :func:`_first_homomorphisms` stops as soon as it
    has `limit` maps.
    """
    pins = pins or {}
    for u, a in pins.items():
        if not (0 <= u < h.n):
            raise ValueError(f"pinned vertex {u} out of range for instance graph")
        if not (0 <= a < g.n):
            raise ValueError(f"pin target {a} out of range for target graph")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if limit is None:
        return [tuple(r) for r in _homomorphism_rows(h, g, pins).tolist()]
    return _first_homomorphisms(h, g, pins, limit)


def _first_homomorphisms(h: Graph, g: Graph, pins: dict[int, int],
                         limit: int) -> list[tuple[int, ...]]:
    """The lexicographically first `limit` homomorphisms h -> g extending the
    (already validated) pins.

    Each vertex of h has a domain, a bitmask of target vertices; a pin is a
    one-bit domain.  Arc consistency (D[z] &= N(D[w]) for every edge wz,
    where N(D) is the union of the target neighbourhoods of D) is propagated
    from a queue once at the root and again after each assignment
    (Mackworth's AC-3).  It only removes values that no solution uses, so
    taking vertices 0..n-1 in order and values low bit first still finds the
    maps in lexicographic order.  N(D) is cached per search by the mask, and
    a vertex whose N(D) is the whole target is skipped, which keeps dense
    targets cheap.  A value whose search gave no map rules out its twins at
    the same depth (see the module docstring).  The search is iterative, so
    a long instance graph cannot exhaust the interpreter's recursion limit.
    """
    n = h.n
    if n == 0:
        return [()]
    masks = g.nbr_masks
    full = (1 << g.n) - 1
    nbrs = [_bits(m) for m in h.nbr_masks]
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

    dom = [1 << pins[u] if u in pins else full for u in range(n)]
    if not propagate(dom, list(range(n))):
        return []
    twins = g.twin_masks
    pinned = 0
    for a in pins.values():
        pinned |= 1 << a
    # per depth u: the arc-consistent domains before u is assigned, u's
    # untried values, the values of the pins and of the vertices before u,
    # u's last tried value and the hit count before it was tried
    stack = [[dom, dom[0], pinned, 0, 0]]
    results: list[tuple[int, ...]] = []
    while stack:
        u = len(stack) - 1
        frame = stack[-1]
        dom, untried, fixed, last, mark = frame
        if last and len(results) == mark and not last & fixed:
            # u -> last had no completion, so neither has u -> b for a twin
            # b of last outside the fixed values (see the module docstring)
            untried &= ~twins[last.bit_length() - 1] | fixed
        if not untried:
            stack.pop()
            continue
        low = untried & -untried
        frame[1], frame[3], frame[4] = untried ^ low, low, len(results)
        if low != dom[u]:
            # domains are shared down the stack until one shrinks
            dom = dom.copy()
            dom[u] = low
            if not propagate(dom, [u]):
                continue
        if u == n - 1:
            results.append(tuple(d.bit_length() - 1 for d in dom))
            if len(results) >= limit:
                break
            continue
        stack.append([dom, dom[u + 1], fixed | low, 0, 0])
    return results


# Rows per block of the level search: the largest partial-map array it
# expands at once, which bounds its memory (see the module docstring).
_BLOCK = 2 ** 10


def _homomorphism_rows(h: Graph, g: Graph, pins: dict[int, int]) -> np.ndarray:
    """Every homomorphism h -> g extending the (already validated) pins, one
    map per row of a ``(count, h.n)`` integer array, rows in lexicographic
    order.

    Partial maps of vertices 0..u-1 are extended by vertex u for a whole
    block at once: the candidate images are u's allowed row ANDed with the
    rows of ``g.adj`` at ``part[:, v]`` for every neighbour v < u, and the
    nonzero positions of that block, taken row-major, are the children in
    lexicographic order.  Blocks of at most ``_BLOCK`` rows are expanded
    depth first, which keeps that order and bounds memory.
    """
    n = h.n
    dtype = np.int8 if g.n <= 127 else np.int16
    allowed = np.ones((n, g.n), dtype=bool)
    for u, a in pins.items():
        allowed[u] = False
        allowed[u, a] = True
    back_nbrs = [[int(v) for v in h.neighbors(u) if v < u] for u in range(n)]
    done: list[np.ndarray] = []
    # (depth, block) pairs; the top of the stack holds the lexicographically
    # smallest unexpanded block
    stack = [(0, np.zeros((1, 0), dtype=dtype))]
    while stack:
        u, part = stack.pop()
        if u == n:
            done.append(part)
            continue
        cand = np.broadcast_to(allowed[u], (len(part), g.n))
        for v in back_nbrs[u]:
            cand = cand & g.adj.take(part[:, v], axis=0)
        # row-major positions of the candidates: children in lexicographic order
        rows, images = np.divmod(np.flatnonzero(cand), g.n)
        if not len(rows):
            continue
        children = np.empty((len(rows), u + 1), dtype=dtype)
        children[:, :u] = part.take(rows, axis=0)
        children[:, u] = images
        stack.extend((u + 1, children[i:i + _BLOCK])
                     for i in reversed(range(0, len(children), _BLOCK)))
    if not done:
        return np.zeros((0, n), dtype=dtype)
    return np.concatenate(done)


def endomorphism_rows(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> np.ndarray:
    """Every endomorphism of g as one row of a ``(count, g.n)`` integer array,
    rows in lexicographic order (the identity among them).

    Refuses graphs above the size bound because the downstream verdicts
    depend on this enumeration being exhaustive.  Every row is re-checked
    against ``g.adj`` edge by edge in one batch; a row that breaks an edge
    raises :class:`VerificationFailure`.
    """
    if g.n > max_vertices:
        raise ValueError(f"graph has {g.n} vertices, above the exhaustive-search bound "
                         f"{max_vertices}; raise max_vertices explicitly to override")
    rows = _homomorphism_rows(g, g, {})
    iu, iv = np.nonzero(np.triu(g.adj))
    kept = g.adj[rows[:, iu], rows[:, iv]]
    if not kept.all():
        r, e = np.argwhere(~kept)[0]
        raise VerificationFailure(f"enumerated map {rows[r].tolist()} does not preserve "
                                  f"edge ({iu[e]},{iv[e]})")
    return rows


def _all_bijective(rows: np.ndarray) -> bool:
    """True iff every row of an endomorphism array is a permutation."""
    return bool((np.sort(rows, axis=1) == np.arange(rows.shape[1])).all())


def enumerate_endomorphisms(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> list[Endomorphism]:
    """Every endomorphism of g, with the identity first and the rest in
    lexicographic order.  Refuses graphs above the size bound because the
    downstream verdicts depend on this enumeration being exhaustive."""
    ident = tuple(range(g.n))
    maps = [tuple(r) for r in endomorphism_rows(g, max_vertices).tolist()]
    ordered = [ident] + [m for m in maps if m != ident]
    return [Endomorphism(g, m) for m in ordered]


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
    if f.is_identity() or g.is_identity():
        raise ValueError("certificate maps must be non-identity")
    if not supports_disjoint(f, g):
        raise ValueError("certificate supports are not disjoint")
    if cert.mode == MODE_DISCONNECTED:
        if not supports_disconnected(f, g):
            raise ValueError("certificate claims disconnected supports but an edge joins them")
    elif cert.mode == MODE_DISJOINT_WAC:
        pass
    else:
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
    disconnected supports.  Pairs are scanned in lexicographic order of
    (f, g) and the first hit is returned, so output is deterministic.
    Returns None only after checking every pair.
    """
    return _scan_schmidt_pairs(g, endomorphism_rows(g, max_vertices), oracular)


def _scan_schmidt_pairs(g: Graph, rows: np.ndarray,
                        oracular: bool) -> Optional[SchmidtCertificate]:
    """The pair scan of :func:`find_schmidt_pair` over the lexicographically
    ordered rows of :func:`endomorphism_rows`, so one enumeration can serve
    several scans.

    Partners are ruled out by bitmasks over non-identity row indices:
    ``movers[u]`` has bit i set iff map i moves u, so OR-ing it over f's
    support (plus its neighbourhood, when oracular) gives every partner whose
    support meets (or touches) f's.  The remaining bits are the candidates,
    taken in ascending index, so the first hit is the lexicographically first
    pair.  A hit is re-checked by :func:`verify_schmidt_certificate`, which
    uses the frozenset predicates instead of these masks; a hit it rejects
    raises :class:`VerificationFailure`.
    """
    moved = rows != np.arange(g.n)
    keep = moved.any(axis=1)
    rows, moved = rows[keep], moved[keep]
    if not len(rows):
        return None
    # the support of map i is where[starts[i]:starts[i + 1]], ascending
    which, where = np.nonzero(moved)
    starts = np.searchsorted(which, np.arange(len(rows) + 1)).tolist()
    masks = g.nbr_masks
    movers = [int.from_bytes(col.tobytes(), "little")
              for col in np.packbits(moved.T, axis=1, bitorder="little")]
    everyone = (1 << len(rows)) - 1
    for i in range(len(rows)):
        fm = rows[i].tolist()
        sf = where[starts[i]:starts[i + 1]].tolist()
        reach = sf
        if oracular:
            near = 0
            for x in sf:
                near |= masks[x]
            reach = set(sf).union(_bits(near))
        blocked = 0
        for u in reach:
            blocked |= movers[u]
        partners = everyone & ~blocked
        while partners:
            low = partners & -partners
            partners ^= low
            j = low.bit_length() - 1
            hm = rows[j].tolist()
            if oracular:
                mode = MODE_DISCONNECTED
            elif _wac_masks(fm, hm, sf, masks):
                mode = MODE_DISJOINT_WAC
            else:
                continue
            try:
                cert = SchmidtCertificate(Endomorphism(g, tuple(fm)), Endomorphism(g, tuple(hm)),
                                          mode, (sf[0], int(where[starts[j]])))
                verify_schmidt_certificate(cert)
            except ValueError as exc:
                raise VerificationFailure(f"Schmidt pair failed re-verification: {exc}") from exc
            return cert
    return None


def _wac_masks(fm: list[int], hm: list[int], sf: list[int],
               masks: tuple[int, ...]) -> bool:
    """:func:`is_wac` for maps fm, hm with hm's support disjoint from fm's
    support sf: every neighbour y of x in sf that hm moves needs
    fm[x] ~ hm[y]."""
    for x in sf:
        fx = masks[fm[x]]
        for y in _bits(masks[x]):
            if hm[y] != y and not fx >> hm[y] & 1:
                return False
    return True


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
        from .graphs import _split_args
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
    rows = endomorphism_rows(g, max_vertices)
    cert = _scan_schmidt_pairs(g, rows, oracular=True)
    if cert is not None:
        return Verdict(KIND_NO_GADGET_AT_ALL, cert, None,
                       ("disconnected-support pair excludes oracular and non-oracular "
                        "commutativity gadgets",))
    cert = _scan_schmidt_pairs(g, rows, oracular=False)
    if cert is not None:
        notes = ["disjoint WAC pair excludes a non-oracular commutativity gadget; "
                 "the oracular case is not settled by this certificate"]
        if known:
            notes.append(f"known oracular gadget: ({known['gadget']}, {known['x']}, {known['y']})")
        return Verdict(KIND_NO_NONORACULAR_GADGET, cert, known, tuple(notes))
    if known:
        return Verdict(KIND_KNOWN_GADGET, None, known,
                       ("no Schmidt pair exists (exhaustive search); an oracular gadget "
                        "for this family is known",))
    return Verdict(KIND_UNKNOWN, None, None,
                   ("no Schmidt pair exists (exhaustive search); absence of a pair "
                    "proves nothing, gadget existence remains open",))
