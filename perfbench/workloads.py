"""The three workloads: op lists and the input files they read.

Each workload function takes the seed and a directory for input files and
returns the op list in a seed-dependent order.  The seed also draws every
random input (pins, edges, maps, unitaries), while the sizes that set an
op's cost (graph orders, dimensions, counts) depend only on the op's index,
so that every seed asks for the same amount of work.  Inputs are
written in the program's documented formats by the code here, so set-up
does not run the program's own constructions; only graphs handed to
library ops are built through ``qgadget.build_family`` and
``qgadget.graph_from_edges``, as a user of the library would.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

import ownref

WORKLOADS = ("nogo-search", "gadget-qcore", "rep-pipeline")

# Ops whose check fails on the seed commit because of a known defect:
# walk_table multiplies uint8 matrices, so walk counts wrap at 256 and
# K:258 loses its length-2 walks.  They still count in `failed`.
KNOWN_FAILURES = {"walk-query K:258"}


@dataclass
class Op:
    """One operation: a CLI call (argv) or a library call (lib)."""

    id: str
    check: str
    argv: Optional[list[str]] = None
    lib: Optional[str] = None
    data: dict = field(default_factory=dict)


def _shuffled(ops: list[Op], rng: random.Random) -> list[Op]:
    ids = [op.id for op in ops]
    if len(set(ids)) != len(ids):
        raise ValueError("op ids must be unique")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Input documents


def graph_doc(adj: np.ndarray, label: str = "") -> dict:
    edges = ownref.edge_list(adj)
    return {"n": len(adj), "m": len(edges), "label": label, "edges": edges}


def mat_doc(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def rep_doc(dom: np.ndarray, cod: np.ndarray, mats: dict) -> dict:
    dim = next(iter(mats.values())).shape[0]
    return {"domain": graph_doc(dom), "codomain": graph_doc(cod), "dim": dim, "tol": 1e-9,
            "mats": {f"{u},{v}": mat_doc(m) for (u, v), m in sorted(mats.items())}}


def write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True))  # dumps uses the C encoder, dump does not
    return path


def write_edge_list(path: str, adj: np.ndarray) -> str:
    edges = ownref.edge_list(adj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(adj)} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return "@" + path


def random_graph(rng: random.Random, n: int, p: float) -> np.ndarray:
    """n vertices and round(p * C(n, 2)) edges drawn uniformly: the seed picks
    the edges, the size stays fixed so the op's cost does not vary by seed."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return ownref.edges_to_adj(n, rng.sample(pairs, round(p * len(pairs))))


def random_unitary(nrng: np.random.Generator, d: int) -> np.ndarray:
    z = nrng.normal(size=(d, d)) + 1j * nrng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def conjugate(mats: dict, u: np.ndarray) -> dict:
    return {k: u @ m @ u.conj().T for k, m in mats.items()}


# Rank-1 projections of the computational and Hadamard bases.
P0, P1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
Q0 = np.full((2, 2), 0.5, dtype=complex)
Q1 = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def schmidt_mats(n: int, f, g) -> dict:
    """Entry (x, y) = d(x,y)(p0+q0-1) + d(f(x),y) p1 + d(g(x),y) q1."""
    mats: dict = {}
    for x in range(n):
        for y, term in ((x, P0 + Q0 - np.eye(2)), (f[x], P1), (g[x], Q1)):
            mats[(x, y)] = mats.get((x, y), 0) + term
    return {k: m for k, m in mats.items() if np.abs(m).max() > 0.0}


def lifted_box_mats(n: int, k: int, s0: int, t0: int) -> dict:
    """Representation of morphisms C_m box P_k -> C_m (m = 2n+1): the Schmidt
    representation of the two path shifts, wrapped onto C_m, then lifted by
    ((a, s), b) -> (s, a+b mod m)."""
    m = 2 * n + 1
    f = [s + 2 if s <= s0 else s for s in range(k + 1)]
    g = [s - 2 if s >= t0 else s for s in range(k + 1)]
    wrapped: dict = {}
    for (s, b), mat in schmidt_mats(k + 1, f, g).items():
        wrapped[(s, b % m)] = wrapped.get((s, b % m), 0) + mat
    wrapped = {key: mat for key, mat in wrapped.items() if np.abs(mat).max() > 0.0}
    return {(a * (k + 1) + s, b): wrapped[(s, (a + b) % m)]
            for a in range(m) for s in range(k + 1) for b in range(m)
            if (s, (a + b) % m) in wrapped}


def pair_swap_mats(k: int) -> dict:
    mats = {(0, 0): P0, (1, 1): P0, (0, 1): P1, (1, 0): P1,
            (2, 2): Q0, (3, 3): Q0, (2, 3): Q1, (3, 2): Q1}
    mats.update({(a, a): np.eye(2, dtype=complex) for a in range(4, k)})
    return mats


def four_cycle_mats(cycle) -> dict:
    """Dimension-4 representation K:2 -> G built on a 4-cycle (a, b, c, d)."""
    k0, k1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    kp, km = np.array([1.0, 1.0]) / math.sqrt(2), np.array([1.0, -1.0]) / math.sqrt(2)
    a, b, c, d = cycle
    rows = {0: {a: (k0, k0), b: (k1, k0), c: (k0, k1), d: (k1, k1)},
            1: {a: (k1, kp), b: (k0, kp), c: (k1, km), d: (k0, km)}}
    return {(u, v): np.outer(np.kron(l, r), np.kron(l, r)).astype(complex)
            for u, row in rows.items() for v, (l, r) in row.items()}


def four_cycles(adj: np.ndarray) -> list[tuple[int, int, int, int]]:
    n = len(adj)
    return [(a, b, c, d) for a in range(n) for b in range(n) for c in range(n) for d in range(n)
            if len({a, b, c, d}) == 4 and adj[a, b] and adj[b, c] and adj[c, d] and adj[d, a]]


def strategy_doc(h: np.ndarray, g: np.ndarray, pvms: np.ndarray, edge_map=None) -> dict:
    """Strategy with vertex PVMs pvms[u, a] and the uniform directed-edge weight;
    edge_map sends each directed edge to one directed target edge (dimension 1)."""
    iu, iv = np.nonzero(h)
    w = f"1/{len(iu)}"
    doc = {"instance": graph_doc(h), "target": graph_doc(g), "dim": pvms.shape[-1], "tol": 1e-9,
           "vertex_pvms": {str(u): [mat_doc(p) for p in pvms[u]] for u in range(len(h))},
           "dist": {f"{x},{y}": w for x, y in zip(iu, iv)}}
    if edge_map is not None:
        doc["edge_pvms"] = {f"{x},{y}": {f"{a},{b}": [[[1.0, 0.0]]]}
                            for (x, y), (a, b) in edge_map.items()}
    return doc


def deterministic_pvms(n_target: int, sigma) -> np.ndarray:
    out = np.zeros((len(sigma), n_target, 1, 1), dtype=complex)
    for u, a in enumerate(sigma):
        out[u, a] = 1.0
    return out


def rep_pvms(n_dom: int, n_cod: int, mats: dict) -> np.ndarray:
    d = next(iter(mats.values())).shape[0]
    out = np.zeros((n_dom, n_cod, d, d), dtype=complex)
    for (u, v), m in mats.items():
        out[u, v] = m
    return out


# ---------------------------------------------------------------------------
# nogo-search

NOGO_BATTERY = ["C:9", "C:10", "C:11", "C:12", "P:8", "P:9", "P:10", "P:11", "cmpl(C:8)",
                "cmpl(C:10)", "petersen", "O:3", "K:4", "K:5", "K:6", "tensor(K:3,K:3)",
                "box(C:3,P:2)", "box(C:3,P:3)", "diamond", "dprime"]
HOMS_SOURCES = ["C:9", "C:10", "P:8", "P:9", "petersen", "cmpl(C:8)", "box(C:3,P:2)",
                "dprime", "diamond", "tensor(K:3,K:3)"]
HOMS_TARGETS = ["K:3", "C:5", "C:7"]
HOMS_OPS = 20


def nogo_search(seed: int, work: str, qg) -> list[Op]:
    rng = random.Random(seed)
    sizes = {spec: qg.build_family(spec).n for spec in NOGO_BATTERY + HOMS_TARGETS}
    ops = []
    for spec in NOGO_BATTERY:
        ops += [Op(f"analyze {spec}", "analyze", ["analyze", spec, "--json"], data={"graph": spec}),
                Op(f"schmidt {spec}", "schmidt", ["schmidt", spec, "--json"],
                   data={"graph": spec, "oracular": False}),
                Op(f"schmidt --oracular {spec}", "schmidt",
                   ["schmidt", spec, "--oracular", "--json"],
                   data={"graph": spec, "oracular": True}),
                Op(f"endos {spec}", "endos", ["endos", spec, "--json"], data={"graph": spec})]
    for i in range(HOMS_OPS):
        src, tgt = HOMS_SOURCES[i % len(HOMS_SOURCES)], HOMS_TARGETS[i % len(HOMS_TARGETS)]
        pins = {u: rng.randrange(sizes[tgt]) for u in sorted(rng.sample(range(sizes[src]), 2))}
        limit = rng.randint(1, 5) if i >= HOMS_OPS // 2 else 0
        argv = ["homs", src, tgt]
        for u, a in pins.items():
            argv += ["--pin", f"{u}={a}"]
        argv += ["--limit", str(limit), "--json"]
        ops.append(Op(f"homs#{i} " + " ".join(argv[1:-1]), "homs", argv,
                      data={"source": src, "target": tgt, "pins": pins, "limit": limit}))
    return _shuffled(ops, rng)


# ---------------------------------------------------------------------------
# gadget-qcore

QCORE_GRAPHS = [f"C:{n}" for n in range(9, 52, 2)] + ["O:3", "O:4", "O:5", "KG:8,3", "KG:9,3",
                                                       "KG:10,3", "box(C:9,P:10)"]
GADGET_CHECKS = [(f"cmpl(C:{2 * k})", 0, 1, f"K:{k}") for k in range(4, 8)] + [
    ("box(C:5,P:4)", 0, 4, "C:5"), ("box(C:5,P:6)", 0, 6, "C:5"), ("C:9", 0, 4, "C:9"),
    ("dprime", 0, 3, "K:3")]
SPLICE_GADGETS = [("cmpl(C:6)", 0, 1, "K:3"), ("cmpl(C:8)", 0, 1, "K:4"), ("C:9", 0, 4, "C:9")]
BIPARTITE_TARGETS = ["P:1", "P:3", "P:5", "C:4", "C:6", "C:8", "edgeless"]
GIRTH_GRAPHS = ["O:4", "KG:8,3", "box(C:9,P:10)", "C:15", "C:16", "P:11", "cmpl(C:10)",
                "petersen", "box(C:5,P:6)", "tensor(K:3,K:3)"]
RANDOM_OPS = 20  # each of splice, bipartite-decide and girths
WALK_QUERY_GRAPH = "K:258"


def gadget_qcore(seed: int, work: str, qg) -> list[Op]:
    rng = random.Random(seed)
    ops = [Op(f"qcore {spec}", "qcore", ["qcore", spec, "--json"], data={"graph": spec})
           for spec in QCORE_GRAPHS]
    for gadget, x, y, target in GADGET_CHECKS:
        ops.append(Op(f"gadget-check {gadget} {x} {y} {target}", "gadget_check",
                      ["gadget-check", gadget, str(x), str(y), target, "--json"],
                      data={"gadget": gadget, "x": x, "y": y, "target": target}))
    for k in (4, 5, 6):
        ops.append(Op(f"gadget-build complement-cycle {k}", "gadget_build",
                      ["gadget-build", "complement-cycle", str(k), "--json"], data={"k": k}))
    statuses = [rng.choice(["candidate", "proven_oracular"]) for _ in range(2)]
    ops.append(Op("product-transfer cmpl(C:8) K:4 K:4", "product_transfer",
                  ["product-transfer", "cmpl(C:8)", "0", "1", "K:4", "K:4", "--status1",
                   statuses[0], "--status2", statuses[1], "--json"],
                  data={"gadget": "cmpl(C:8)", "x": 0, "y": 1, "targets": ["K:4", "K:4"],
                        "statuses": statuses}))
    for i in range(RANDOM_OPS):
        h = random_graph(rng, 3 + i % 5, 0.4)
        gadget, x, y, target = SPLICE_GADGETS[i % len(SPLICE_GADGETS)]
        pairs = rng.sample([(u, v) for u in range(len(h)) for v in range(u + 1, len(h))],
                           1 + i % 3)
        path = write_edge_list(os.path.join(work, f"splice{i}.txt"), h)
        ops.append(Op(f"splice#{i}", "splice",
                      ["splice", path, gadget, str(x), str(y), target, "--pairs",
                       ";".join(f"{u},{v}" for u, v in pairs), "--json"],
                      data={"instance": h, "gadget": gadget, "x": x, "y": y, "pairs": pairs}))
    for i in range(RANDOM_OPS):
        if i % 2:
            h = random_graph(rng, 2 + i % 8, 0.35)
        else:  # bipartite by construction
            a, b = 1 + i % 4, 1 + i // 2 % 4
            cross = [(u, a + v) for u in range(a) for v in range(b)]
            h = ownref.edges_to_adj(a + b, rng.sample(cross, len(cross) // 2))
        choice = BIPARTITE_TARGETS[i % len(BIPARTITE_TARGETS)]
        g = ownref.edges_to_adj(1 + i % 4, []) if choice == "edgeless" \
            else ownref.family_adj(choice)
        target = write_edge_list(os.path.join(work, f"bip{i}-target.txt"), g) \
            if choice == "edgeless" else choice
        instance = write_edge_list(os.path.join(work, f"bip{i}.txt"), h)
        ops.append(Op(f"bipartite-decide#{i}", "bipartite",
                      ["bipartite-decide", instance, target, "--json"],
                      data={"instance": h, "target": g}))
    for i in range(RANDOM_OPS):
        if i < len(GIRTH_GRAPHS):
            spec = GIRTH_GRAPHS[i]
            g, adj = qg.build_family(spec), ownref.family_adj(spec)
        else:
            adj = random_graph(rng, 12 + 3 * (i - len(GIRTH_GRAPHS)), (0.06, 0.12, 0.25)[i % 3])
            spec = f"random#{i}"
            g = qg.graph_from_edges(len(adj), [tuple(e) for e in ownref.edge_list(adj)])
        ops.append(Op(f"girths {spec}", "girths", lib="girths", data={"graph": g, "adj": adj}))
    n = 258
    queries = [(2, 0, 1)] + [(rng.randrange(4), rng.randrange(n), rng.randrange(n))
                             for _ in range(7)]
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
    ops.append(Op(f"walk-query {WALK_QUERY_GRAPH}", "walk_query", lib="walk_query",
                  data={"graph": qg.build_family(WALK_QUERY_GRAPH),
                        "adj": ownref.family_adj(WALK_QUERY_GRAPH), "lmax": 3,
                        "queries": queries, "pairs": pairs}))
    return _shuffled(ops, rng)


# ---------------------------------------------------------------------------
# rep-pipeline

PRISMS = [(2, 4), (2, 8), (3, 8), (3, 12), (4, 12), (5, 16)]
SCHMIDT_GRAPHS = ["C:10", "cmpl(C:8)", "K:5", "dprime"]
LIFT_SHAPES = [(2, 4), (3, 8), (5, 16), (3, 8)]
PAIR_SWAP_SIZES = [4, 5, 7]
TOWER_BASE = 5
FOUR_CYCLE_TARGETS = ["K:4", "cmpl(C:8)"]
DEFECT_TARGETS = ["K:3", "K:4", "C:5"]
RANDOM_DEFECTS = 14  # each of: deterministic a, c-v, c-c


def _wac_pair(adj: np.ndarray, rng: random.Random):
    """A seeded choice among disjoint-support WAC pairs whose first map is one
    of the 100 with the smallest supports (they have the most partners).
    Pairs with disconnected supports are WAC outright and cost two mask
    operations, so they are taken when there are any."""
    nb = ownref.masks(adj)
    maps = sorted(((m, ownref.support_mask(m)) for m in ownref.endos(adj)[1:]),
                  key=lambda ms: (ms[1].bit_count(), ms[0]))
    firsts = [(f, sf | ownref.union_masks(nb, sf)) for f, sf in maps[:100]]
    pairs = [(f, g) for f, cf in firsts for g, sg in maps if not sg & cf]
    if not pairs:
        pairs = [(f, g) for f, sf in maps[:100] for g, sg in maps
                 if not sf & sg and ownref.wac(adj, f, g)]
    return rng.choice(pairs)


def rep_pipeline(seed: int, work: str, qg) -> list[Op]:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    ops = [Op(f"disprove-prism {n} {k}", "disprove", ["disprove-prism", str(n), str(k), "--json"],
              data={"n": n, "k": k}) for n, k in PRISMS]

    reps: dict[str, tuple[np.ndarray, np.ndarray, dict]] = {}  # name -> (dom, cod, mats)
    lifts = []
    for i, (n, k) in enumerate(LIFT_SHAPES):
        s0 = rng.randint(0, k - 2)
        t0 = rng.randint(s0 + 2, k)
        m = 2 * n + 1
        dom = ownref.family_adj(f"box(C:{m},P:{k})")
        mats = lifted_box_mats(n, k, s0, t0)
        lifts.append((n, k, s0, t0, dom, mats))
        reps[f"lift{i}"] = (dom, ownref.family_adj(f"C:{m}"),
                            conjugate(mats, random_unitary(nrng, 2)))
    for i, spec in enumerate(SCHMIDT_GRAPHS):
        adj = ownref.family_adj(spec)
        f, g = _wac_pair(adj, rng)
        reps[f"schmidt{i}"] = (adj, adj, conjugate(schmidt_mats(len(adj), f, g),
                                                   random_unitary(nrng, 2)))
    k4 = ownref.family_adj("K:4")
    for i, spec in enumerate(FOUR_CYCLE_TARGETS):
        adj = ownref.family_adj(spec)
        reps[f"fourcycle{i}"] = (ownref.family_adj("K:2"), adj,
                                 four_cycle_mats(rng.choice(four_cycles(adj))))
    for i, k in enumerate(PAIR_SWAP_SIZES):
        adj = ownref.family_adj(f"K:{k}")
        reps[f"pairswap{i}"] = (adj, adj, pair_swap_mats(k))
    base = ownref.family_adj(f"K:{TOWER_BASE}")
    tower = pair_swap_mats(TOWER_BASE)
    tower_doc = rep_doc(base, base, tower)
    for power in (2, 3, 4):
        tower = ownref.compose(rep_doc(base, base, tower), tower_doc)
        reps[f"tower{2 ** power}"] = (base, base, tower)
    paths = {name: write_json(os.path.join(work, f"rep-{name}.json"), rep_doc(*rep))
             for name, rep in reps.items()}
    for name, path in paths.items():
        for oracular in (False, True):
            flag = ["--oracular"] if oracular else []
            ops.append(Op(f"rep-verify {name}{' --oracular' if oracular else ''}", "rep_verify",
                          ["rep-verify", path] + flag + ["--json"],
                          data={"path": path, "oracular": oracular}))

    # composition partners: classical automorphisms (dimension 1)
    def perm_rep(adj, perm):
        return write_json(os.path.join(work, f"perm{len(adj)}-{'-'.join(map(str, perm))}.json"),
                          rep_doc(adj, adj, {(u, perm[u]): np.ones((1, 1), dtype=complex)
                                             for u in range(len(adj))}))
    pairs = [(paths[f"schmidt{i}"], paths[f"schmidt{i}"]) for i in (0, 1)]
    pairs += [(paths[f"pairswap{i}"], paths[f"pairswap{i}"]) for i in (0, 1)]
    pairs += [(paths["fourcycle0"], perm_rep(k4, rng.sample(range(4), 4)))]
    shift = rng.randrange(1, 8)  # rotations of C:8 are automorphisms of its complement
    pairs += [(paths["fourcycle1"], perm_rep(reps["fourcycle1"][1],
                                             [(v + shift) % 8 for v in range(8)]))]
    for i in (0, 1):
        m = len(reps[f"lift{i}"][1])
        shift = rng.randrange(m)
        pairs.append((paths[f"lift{i}"],
                      perm_rep(reps[f"lift{i}"][1], [(v + shift) % m for v in range(m)])))
    for i, (first, second) in enumerate(pairs):
        ops.append(Op(f"rep-compose#{i}", "rep_compose", ["rep-compose", first, second, "--json"],
                      data={"first": first, "second": second}))

    def defect_op(name, doc, model, expected, extra=()):
        path = write_json(os.path.join(work, f"strategy-{name}.json"), doc)
        ops.append(Op(f"defect {model} {name}", "defect",
                      ["defect", path, "--model", model, *extra, "--json"],
                      data={"expected": expected}))

    for i, (n, k, s0, t0, dom, mats) in enumerate(lifts[:3]):
        m = 2 * n + 1
        pvms = rep_pvms(len(dom), m, conjugate(mats, random_unitary(nrng, 2)))
        doc = strategy_doc(dom, ownref.family_adj(f"C:{m}"), pvms)
        defect_op(f"lift{i}", doc, "a", 0.0)
        x, y = s0, rng.randrange(m) * (k + 1) + t0
        defect_op(f"lift{i}-commutator", doc, "commutator",
                  ownref.commutator_defect(pvms[x], pvms[y]), ["--x", str(x), "--y", str(y)])
    k2 = ownref.family_adj("K:2")
    for i in range(5):
        d = (1, 2, 4)[i % 3]
        u = random_unitary(nrng, 2 * d)
        pvms = np.array([[u @ np.kron(p, np.eye(d)) @ u.conj().T for p in fam]
                         for fam in ((P0, P1), (Q0, Q1))])
        defect_op(f"hadamard{i}", strategy_doc(k2, k2, pvms), "commutator", 1.0,
                  ["--x", "0", "--y", "1"])
    for i in range(RANDOM_DEFECTS + 4):
        if i < RANDOM_DEFECTS:
            h = random_graph(rng, 4 + i % 6, 0.45)
            h[0, 1] = h[1, 0] = True  # at least one edge
            g = ownref.family_adj(DEFECT_TARGETS[i % len(DEFECT_TARGETS)])
            sigma = [rng.randrange(len(g)) for _ in range(len(h))]
        else:  # consistent: a homomorphism, on a sparse instance that has one
            g = ownref.family_adj("K:4")
            found = []
            while not found:
                h = random_graph(rng, 4 + i % 5, 0.3)
                h[0, 1] = h[1, 0] = True
                found = ownref.homs(h, g, limit=40)
            sigma = rng.choice(found)
        doc = strategy_doc(h, g, deterministic_pvms(len(g), sigma))
        defect_op(f"deterministic{i}", doc, "a",
                  float(ownref.deterministic_assignment_defect(h, g, sigma)))
    for i in range(RANDOM_DEFECTS):
        h = random_graph(rng, 3 + i % 5, 0.5)
        h[0, 1] = h[1, 0] = True
        g = ownref.family_adj(DEFECT_TARGETS[i % len(DEFECT_TARGETS)])
        sigma = [rng.randrange(len(g)) for _ in range(len(h))]
        target_edges = [tuple(e) for e in zip(*np.nonzero(g))]
        edge_map = {(int(x), int(y)): tuple(int(t) for t in rng.choice(target_edges))
                    for x, y in zip(*np.nonzero(h))}
        doc = strategy_doc(h, g, deterministic_pvms(len(g), sigma), edge_map)
        defect_op(f"cv{i}", doc, "c-v", float(ownref.deterministic_cv_defect(h, sigma, edge_map)))
        edges = list(edge_map)  # at least the two orientations of edge 0-1
        chosen = sorted({tuple(rng.sample(edges, 2)) for _ in range(2 + i % 7)})
        pair_dist = {pair: Fraction(1, len(chosen)) for pair in chosen}
        pd_path = write_json(os.path.join(work, f"cc{i}-pairs.json"),
                             {f"{a},{b}|{c},{d}": f"{w.numerator}/{w.denominator}"
                              for ((a, b), (c, d)), w in pair_dist.items()})
        defect_op(f"cc{i}", doc, "c-c",
                  float(ownref.deterministic_cc_defect(edge_map, pair_dist)),
                  ["--pair-dist", pd_path])
    return _shuffled(ops, rng)


OP_LISTS = {"nogo-search": nogo_search, "gadget-qcore": gadget_qcore, "rep-pipeline": rep_pipeline}
