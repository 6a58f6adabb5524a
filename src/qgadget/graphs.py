"""Finite simple graphs: construction, named families, products, and edge-list IO.

Vertices are always the integers 0..n-1.  Adjacency is a symmetric boolean
numpy matrix with a false diagonal (no loops, no multi-edges, undirected).
Family constructors keep a descriptor string in ``label`` so downstream
analyses can recognise how a graph was built without isomorphism testing.

Family DSL accepted by :func:`build_family`:

    K:<n>        complete graph on n >= 1 vertices
    C:<n>        cycle on n >= 3 vertices
    P:<n>        path of length n (n+1 vertices)
    KG:<n>,<k>   Kneser graph: k-subsets of an n-set, adjacent iff disjoint
    O:<n>        odd graph KG:2n-1,n-1 (n >= 2)
    petersen     KG:5,2
    diamond      4-cycle plus one chord
    dprime       C:6 plus the long chord {0,3}
    cmpl(S)      complement
    box(S,T)     box (Cartesian) product
    tensor(S,T)  categorical (tensor) product

Descriptors nest at most MAX_NESTING parentheses deep.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations

import numpy as np

MAX_VERTICES = 4096
# build_family recurses once per level, so deeper descriptors would exhaust
# the interpreter's stack
MAX_NESTING = 100
_INT = re.compile(r"-?[0-9]+")
# two such integers joined by a separator, whitespace around each
_PAIRS = {sep: re.compile(rf"\s*({_INT.pattern})\s*{sep}\s*({_INT.pattern})\s*") for sep in ",="}


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected loop-free graph on vertices 0..n-1."""

    n: int
    adj: np.ndarray
    label: str = ""

    def __post_init__(self):
        a = np.asarray(self.adj, dtype=bool)
        if a.shape != (self.n, self.n):
            raise ValueError(f"adjacency shape {a.shape} does not match n={self.n}")
        if self.n < 0 or self.n > MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside supported range 0..{MAX_VERTICES}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if a.diagonal().any():
            raise ValueError("adjacency matrix must have a false diagonal (loop-free)")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "adj", a)

    def __repr__(self):
        name = self.label or "graph"
        return f"Graph({name}, n={self.n}, m={self.num_edges})"

    @property
    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u, v])

    def neighbors(self, u: int) -> np.ndarray:
        return np.flatnonzero(self.adj[u])

    def neighbour_lists(self) -> list[list[int]]:
        """Each vertex's neighbours in ascending order, built on each call:
        a graph does not keep them."""
        rows, cols = np.nonzero(self.adj)
        ends = np.searchsorted(rows, np.arange(1, self.n + 1)).tolist()
        cols = cols.tolist()
        return [cols[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list, each edge once as (u, v) with u < v."""
        return list(zip(*(a.tolist() for a in self._edge_ends)))

    @cached_property
    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends u < v of every edge as two index arrays, in edges() order."""
        return np.nonzero(np.triu(self.adj))

    @cached_property
    def nbr_masks(self) -> tuple[int, ...]:
        """Neighbourhood of each vertex as a Python-int bitmask (bit v set iff
        u ~ v), derived from ``adj`` on first use for the bitmask searches."""
        packed = np.packbits(self.adj, axis=1, bitorder="little")
        return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)

    @cached_property
    def twin_masks(self) -> tuple[int, ...]:
        """Twins of each vertex a as a bitmask: bit b set iff b != a and the
        swap (a b) is an automorphism, that is N(a)\\{b} == N(b)\\{a}.  Such b
        share a's open neighbourhood (non-adjacent twins) or its closed one
        (adjacent twins), so grouping equal masks finds them all."""
        open_: dict[int, int] = {}
        closed: dict[int, int] = {}
        for v, m in enumerate(self.nbr_masks):
            open_[m] = open_.get(m, 0) | 1 << v
            closed[m | 1 << v] = closed.get(m | 1 << v, 0) | 1 << v
        return tuple((open_[m] | closed[m | 1 << v]) & ~(1 << v)
                     for v, m in enumerate(self.nbr_masks))

    def directed_edges(self) -> list[tuple[int, int]]:
        """Every edge in both orientations, sorted."""
        iu, iv = np.nonzero(self.adj)
        return list(zip(iu.tolist(), iv.tolist()))

    def to_json(self) -> dict:
        return {"n": self.n, "m": self.num_edges, "label": self.label,
                "edges": np.array(self._edge_ends).T.tolist()}


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a vertex bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_order(n: int) -> None:
    """Refuse a vertex count outside the supported range, before anything of
    that size is allocated."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")


def graph_from_edges(n: int, edges, label: str = "") -> Graph:
    _check_order(n)
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) not allowed")
        adj[u, v] = adj[v, u] = True
    return Graph(n, adj, label)


def _json_int(x) -> int:
    """An integer of a JSON document.  JSON's true and false load as bools,
    which ``operator.index`` reads as 1 and 0, so they raise TypeError."""
    if isinstance(x, bool):
        raise TypeError(f"{str(x).lower()} is not an integer")
    return operator.index(x)


def graph_from_json(obj) -> Graph:
    """Inverse of :meth:`Graph.to_json`; raises ValueError on a malformed
    document, one whose optional ``label`` is not a string, or one that
    :func:`_document_graph` refuses (``m``, if given, is the edge count)."""
    try:
        n = _json_int(obj["n"])
        edges = [tuple(_json_int(t) for t in e) for e in obj["edges"]]
        m = _json_int(obj.get("m", len(edges)))
    except KeyError as exc:
        raise ValueError(f"graph document lacks field {exc}") from None
    except TypeError:
        raise ValueError("graph document needs an integer 'n', a list of integer-pair "
                         "'edges' and, if given, an integer 'm'") from None
    if not isinstance(obj["edges"], list) or any(len(e) != 2 for e in edges):
        raise ValueError("graph document needs 'edges' as a list of vertex pairs")
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValueError(f"graph document needs 'label' as a string, got {type(label).__name__}")
    return _document_graph(n, m, edges, label)


def _document_graph(n: int, m: int, edges: list, label: str = "") -> Graph:
    """The graph of a JSON or edge-list document announcing m edges on n
    vertices.  Refuses an m other than the number of ``edges``, an edge out
    of range, a loop and an edge listed twice in either orientation."""
    if m != len(edges):
        raise ValueError(f"graph document announces {m} edges but lists {len(edges)}")
    g = graph_from_edges(n, edges, label)
    if g.num_edges != len(edges):
        # graph_from_edges merges a repeat; a document lists each edge once
        seen = set()
        for u, v in edges:
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen |= {(u, v), (v, u)}
    return g


def adjacency_equal(g: Graph, h: Graph) -> bool:
    """Structural equality: same vertex count and same adjacency matrix."""
    return g is h or (g.n == h.n and np.array_equal(g.adj, h.adj))


# ---------------------------------------------------------------------------
# Named families


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    _check_order(n)
    adj = ~np.eye(n, dtype=bool)
    return Graph(n, adj, f"K:{n}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_order(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return graph_from_edges(n, [(min(u, v), max(u, v)) for u, v in edges], f"C:{n}")


def path_graph(length: int) -> Graph:
    """Path of the given length: length+1 vertices 0..length, renumbered
    0-based from the 1-based convention."""
    if length < 0:
        raise ValueError("path length must be >= 0")
    _check_order(length + 1)
    edges = [(i, i + 1) for i in range(length)]
    return graph_from_edges(length + 1, edges, f"P:{length}")


def kneser_graph(n: int, k: int) -> Graph:
    """Kneser graph on the k-subsets of an n-set, adjacent iff disjoint.

    Subsets are enumerated in lexicographic order so the vertex numbering
    is reproducible.
    """
    if not (n >= k >= 1):
        raise ValueError("Kneser graph needs n >= k >= 1")
    if k == n:
        # the one n-subset, which meets itself: K:1, built without listing it
        return Graph(1, np.zeros((1, 1), dtype=bool), f"KG:{n},{k}")
    # C(n, k) >= n for k < n: refused before the binomial, which can run to
    # more digits than a message may print
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count C({n},{k}) outside supported range 0..{MAX_VERTICES}")
    nv = math.comb(n, k)
    _check_order(nv)
    subsets = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(nv, k)
    incidence = np.zeros((nv, n), dtype=np.float32)
    incidence[np.arange(nv)[:, None], subsets] = 1
    # entry (i, j) counts the elements subsets i and j share: an integer of
    # at most k < 2^24, exact in float32 whatever the summation order
    adj = incidence @ incidence.T == 0
    return Graph(nv, adj, f"KG:{n},{k}")


def odd_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("odd graph needs n >= 2")
    g = kneser_graph(2 * n - 1, n - 1)
    return Graph(g.n, g.adj, f"O:{n}")


def diamond_graph() -> Graph:
    """The 4-cycle 0-1-2-3 plus the chord {1,3}, renumbered 0-based from the
    1-based convention."""
    return graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], "diamond")


def dprime_graph() -> Graph:
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    return graph_from_edges(6, [(min(u, v), max(u, v)) for u, v in edges], "dprime")


def complement(g: Graph) -> Graph:
    adj = ~g.adj & ~np.eye(g.n, dtype=bool)
    return Graph(g.n, adj, f"cmpl({g.label})" if g.label else "")


def box_product(g: Graph, h: Graph) -> Graph:
    """Box (Cartesian) product; vertex (x, y) gets index x*|V(h)| + y."""
    _check_order(g.n * h.n)
    adj = np.kron(np.eye(g.n, dtype=bool), h.adj) | np.kron(g.adj, np.eye(h.n, dtype=bool))
    label = f"box({g.label},{h.label})" if g.label and h.label else ""
    return Graph(g.n * h.n, adj, label)


def categorical_product(g: Graph, h: Graph) -> Graph:
    """Categorical (tensor) product; same vertex indexing as box_product."""
    _check_order(g.n * h.n)
    adj = np.kron(g.adj, h.adj)
    label = f"tensor({g.label},{h.label})" if g.label and h.label else ""
    return Graph(g.n * h.n, adj, label)


# ---------------------------------------------------------------------------
# Family DSL


def _split_args(body: str) -> list[str]:
    """Split a DSL argument list on top-level commas."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {body!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {body!r}")
    parts.append("".join(cur))
    return parts


def _parse_int(text: str, what: str = "integer") -> int:
    """The integer of an input: surrounding whitespace, then an optional minus
    sign and ASCII digits only.  Python's ``int`` also reads a plus sign,
    underscores and non-ASCII digits, so "K:1_0" would build K:10."""
    s = text.strip()
    if not _INT.fullmatch(s):
        raise ValueError(f"malformed {what} {text!r}")
    return int(s)


def _parse_pair(text: str, sep: str, what: str) -> tuple[int, int]:
    """Two integers, each read as by _parse_int, joined by ``sep`` ("," or "=")."""
    m = _PAIRS[sep].fullmatch(text)
    if m is None:
        raise ValueError(f"malformed {what} {text!r}, expected two integers joined by {sep!r}")
    return int(m[1]), int(m[2])


def build_family(spec: str) -> Graph:
    """Construct a graph from a family descriptor string (see module docstring)."""
    s = spec.strip()
    if not s:
        raise ValueError("empty family descriptor")
    if max(accumulate((ch == "(") - (ch == ")") for ch in s), default=0) > MAX_NESTING:
        raise ValueError(f"family descriptor nested deeper than {MAX_NESTING} levels")
    low = s.lower()
    for name, fn in (("cmpl", complement), ("box", box_product), ("tensor", categorical_product)):
        if low.startswith(name + "(") and s.endswith(")"):
            args = _split_args(s[len(name) + 1:-1])
            if name == "cmpl":
                if len(args) != 1:
                    raise ValueError(f"cmpl takes one argument, got {len(args)}")
                return fn(build_family(args[0]))
            if len(args) != 2:
                raise ValueError(f"{name} takes two arguments, got {len(args)}")
            return fn(build_family(args[0]), build_family(args[1]))
    if low == "petersen":
        g = kneser_graph(5, 2)
        return Graph(g.n, g.adj, "petersen")
    if low == "diamond":
        return diamond_graph()
    if low == "dprime":
        return dprime_graph()
    if ":" in s:
        head, _, tail = s.partition(":")
        head = head.strip().upper()
        if head == "K":
            return complete_graph(_parse_int(tail, "K parameter"))
        if head == "C":
            return cycle_graph(_parse_int(tail, "C parameter"))
        if head == "P":
            return path_graph(_parse_int(tail, "P parameter"))
        if head == "O":
            return odd_graph(_parse_int(tail, "O parameter"))
        if head == "KG":
            params = tail.split(",")
            if len(params) != 2:
                raise ValueError(f"KG descriptor needs two parameters, got {tail!r}")
            return kneser_graph(*(_parse_int(t, "KG parameter") for t in params))
    raise ValueError(f"unrecognised family descriptor {spec!r}")


# ---------------------------------------------------------------------------
# Edge-list documents


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document.

    Format: optional '#' comment lines; first data line "n m"; then m lines
    "u v" with 0 <= u, v < n, u != v, each edge once.  The edges are checked
    by the rules and messages of JSON graph documents (:func:`_document_graph`).
    """
    lines = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    if not data:
        raise ValueError("empty edge-list document")
    header = data[0].split()
    if len(header) != 2:
        raise ValueError(f"malformed header {data[0]!r}, expected 'n m'")
    try:
        n, m = _parse_int(header[0]), _parse_int(header[1])
    except ValueError:
        raise ValueError(f"malformed header {data[0]!r}, expected integers") from None
    if n < 0 or m < 0:
        raise ValueError(f"negative counts in header {data[0]!r}")
    edges = []
    for ln in data[1:]:
        parts = ln.split()
        try:
            u, v = parts
            edges.append((_parse_int(u), _parse_int(v)))
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
    return _document_graph(n, m, edges)


def serialize_graph(g: Graph) -> str:
    """Canonical edge-list document: sorted edges, each once as 'u v' with u < v."""
    lines = [f"{g.n} {g.num_edges}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
