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

Finding and checking take separate code paths.  The searches work on
Python-int bitmasks: homomorphism backtracking ANDs the target's neighbour
masks (``Graph.nbr_masks``), and the Schmidt-pair scan rules out partners by
support masks.  Every pair it finds is then re-checked by
:func:`verify_schmidt_certificate`, whose predicates (:func:`is_wac`,
:func:`supports_disjoint`, :func:`supports_disconnected`) work on frozenset
supports and ``Graph.has_edge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import Graph, adjacency_equal

DEFAULT_MAX_VERTICES = 12


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

    Backtracking over vertices 0..n-1 in order, so results come out in
    lexicographic order of the map tuple; with a limit, the first `limit`
    maps in that order are returned.  A vertex's candidate images are a
    bitmask: its pin (or every target vertex) ANDed with the target
    neighbourhoods of its already-placed neighbours, tried low bit first.
    """
    pins = pins or {}
    for u, a in pins.items():
        if not (0 <= u < h.n):
            raise ValueError(f"pinned vertex {u} out of range for instance graph")
        if not (0 <= a < g.n):
            raise ValueError(f"pin target {a} out of range for target graph")
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")

    n = h.n
    if n == 0:
        return [()]
    masks = g.nbr_masks
    allowed = [1 << pins[u] if u in pins else (1 << g.n) - 1 for u in range(n)]
    # neighbours of u among already-placed vertices, precomputed once
    back_nbrs = [[int(v) for v in h.neighbors(u) if v < u] for u in range(n)]
    assigned = [0] * n
    # untried candidates per depth; the search is iterative, so a long
    # instance graph cannot exhaust the interpreter's recursion limit
    untried = [0] * n
    untried[0] = allowed[0]
    results: list[tuple[int, ...]] = []
    u = 0
    while u >= 0:
        cand = untried[u]
        if not cand:
            u -= 1
            continue
        low = cand & -cand
        untried[u] = cand ^ low
        assigned[u] = low.bit_length() - 1
        if u == n - 1:
            results.append(tuple(assigned))
            if limit is not None and len(results) >= limit:
                break
            continue
        u += 1
        cand = allowed[u]
        for v in back_nbrs[u]:
            cand &= masks[assigned[v]]
        untried[u] = cand
    return results


def enumerate_endomorphisms(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> list[Endomorphism]:
    """Every endomorphism of g, with the identity first and the rest in
    lexicographic order.  Refuses graphs above the size bound because the
    downstream verdicts depend on this enumeration being exhaustive."""
    if g.n > max_vertices:
        raise ValueError(f"graph has {g.n} vertices, above the exhaustive-search bound "
                         f"{max_vertices}; raise max_vertices explicitly to override")
    ident = tuple(range(g.n))
    maps = enumerate_homomorphisms(g, g)
    ordered = [ident] + [m for m in maps if m != ident]
    return [Endomorphism(g, m) for m in ordered]


def is_core(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """True iff every endomorphism is bijective."""
    return all(e.is_bijective() for e in enumerate_endomorphisms(g, max_vertices))


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
    return _scan_schmidt_pairs(g, enumerate_endomorphisms(g, max_vertices), oracular)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _scan_schmidt_pairs(g: Graph, endos: list[Endomorphism],
                        oracular: bool) -> Optional[SchmidtCertificate]:
    """The pair scan of :func:`find_schmidt_pair` over an already enumerated
    endomorphism list, so one enumeration can serve several scans.

    Partners are ruled out by bitmasks over endomorphism indices:
    ``movers[u]`` has bit i set iff endos[i] moves u, so OR-ing it over f's
    support (plus its neighbourhood, when oracular) gives every partner whose
    support meets (or touches) f's.  The remaining bits are the candidates,
    taken in ascending index, so the first hit is the lexicographically first
    pair.  A hit is re-checked by :func:`verify_schmidt_certificate`, which
    uses the frozenset predicates instead of these masks.
    """
    ident = tuple(range(g.n))
    endos = sorted((e for e in endos if e.mapping != ident), key=lambda e: e.mapping)
    if not endos:
        return None
    masks = g.nbr_masks
    moved = np.array([e.mapping for e in endos]) != np.arange(g.n)
    movers = [int.from_bytes(col.tobytes(), "little")
              for col in np.packbits(moved.T, axis=1, bitorder="little")]
    everyone = (1 << len(endos)) - 1
    for f, moved_f in zip(endos, moved):
        sf = np.flatnonzero(moved_f).tolist()
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
            h = endos[j]
            if oracular:
                mode = MODE_DISCONNECTED
            elif _wac_masks(f, h, sf, masks):
                mode = MODE_DISJOINT_WAC
            else:
                continue
            cert = SchmidtCertificate(f, h, mode, (sf[0], int(np.argmax(moved[j]))))
            verify_schmidt_certificate(cert)
            return cert
    return None


def _wac_masks(f: Endomorphism, h: Endomorphism, sf: list[int],
               masks: tuple[int, ...]) -> bool:
    """:func:`is_wac` for h with support disjoint from f's support sf: every
    neighbour y of x in sf that h moves needs f(x) ~ h(y)."""
    hm = h.mapping
    for x in sf:
        fx = masks[f.mapping[x]]
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
    endos = enumerate_endomorphisms(g, max_vertices)
    cert = _scan_schmidt_pairs(g, endos, oracular=True)
    if cert is not None:
        return Verdict(KIND_NO_GADGET_AT_ALL, cert, None,
                       ("disconnected-support pair excludes oracular and non-oracular "
                        "commutativity gadgets",))
    cert = _scan_schmidt_pairs(g, endos, oracular=False)
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
