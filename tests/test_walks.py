"""Walk tables, distances, girths, bipartiteness, oracularisability."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qgadget.walks
from qgadget import (VerificationFailure, build_family, decide_bipartite_target, distance,
                     enumerate_homomorphisms, girths, is_bipartite, is_oracularisable, walk_table)
from conftest import SMALL_FAMILY_SPECS, walk_exists_dfs


def test_walk_table_c5_examples():
    g = build_family("C:5")
    t = walk_table(g, 4)
    assert t.has_walk(2, 0, 2)
    assert not t.has_walk(2, 0, 1)


def test_walk_table_matches_dfs_oracle(small_family_graphs):
    for g in small_family_graphs:
        if g.n > 8:
            continue
        t = walk_table(g, 5)
        for ell in range(5):
            for u in range(g.n):
                for v in range(g.n):
                    assert t.has_walk(ell, u, v) == walk_exists_dfs(g, ell, u, v)


def test_walk_length_zero_is_identity(small_family_graphs):
    for g in small_family_graphs:
        t = walk_table(g, 0)
        for u in range(g.n):
            for v in range(g.n):
                assert t.has_walk(0, u, v) == (u == v)


def test_back_and_forth_walk():
    t = walk_table(build_family("K:3"), 2)
    assert t.has_walk(2, 0, 0)


def test_walk_table_recurrence(small_family_graphs):
    for g in small_family_graphs[:8]:
        t = walk_table(g, 4)
        for ell in range(4):
            for u in range(g.n):
                for v in range(g.n):
                    step = any(t.has_walk(ell, u, int(w)) for w in g.neighbors(v))
                    assert t.has_walk(ell + 1, u, v) == step


def test_length_two_walks_survive_258_vertices():
    # 257 common neighbours: a walk count that wraps to 1 in uint8
    t = walk_table(build_family("K:258"), 3)
    assert t.has_walk(2, 0, 1)
    assert distance(t, 0, 1) == 1


def test_table_size_does_not_grow_with_lmax():
    g = build_family("C:6")
    small, huge = walk_table(g, 3), walk_table(g, 10**12)
    assert np.array_equal(small.dist, huge.dist) and small.steps == huge.steps
    assert huge.has_walk(10**12, 0, 0) and not huge.has_walk(10**12 - 1, 0, 0)
    assert huge.has_walk(10**12 - 1, 0, 1)


def test_petersen_diameter():
    assert girths(build_family("petersen")).diameter == 2


def test_distance_reflexive():
    g = build_family("dprime")
    t = walk_table(g, "auto")
    for u in range(g.n):
        assert distance(t, u, u) == 0


def test_box_distance_additivity():
    g = build_family("box(C:5,P:3)")
    t = walk_table(g, "auto")
    # vertex (a, s) has index 4a + s; box distances add coordinatewise
    assert distance(t, 0 * 4 + 0, 2 * 4 + 3) == 2 + 3


def test_distance_infinite_on_disconnected():
    g = build_family("cmpl(K:4)")
    t = walk_table(g, "auto")
    assert distance(t, 0, 1) == math.inf


def test_distance_raises_when_lmax_too_small():
    g = build_family("P:5")
    t = walk_table(g, 2)
    with pytest.raises(ValueError, match="lmax"):
        distance(t, 0, 5)


# numpy indexing wrapped a negative vertex: on P:3, has_walk(3, -1, 0) was
# True and distance(t, -1, 0) was 3, both the answers for vertex 3
@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (4, 0), (0, 4), (-5, 0)])
def test_walk_queries_refuse_vertices_out_of_range(u, v):
    t = walk_table(build_family("P:3"))
    bad = u if not 0 <= u < 4 else v
    with pytest.raises(ValueError, match=rf"vertex {bad} outside 0\.\.3"):
        t.has_walk(3, u, v)
    with pytest.raises(ValueError, match=rf"vertex {bad} outside 0\.\.3"):
        distance(t, u, v)


def test_girths_examples():
    assert girths(build_family("O:3")).odd_girth == 5
    r = girths(build_family("C:7"))
    assert r.girth == 7 and r.odd_girth == 7
    r = girths(build_family("K:4"))
    assert r.girth == 3 and r.diameter == 1
    assert girths(build_family("C:6")).odd_girth == math.inf
    assert girths(build_family("P:4")).girth == math.inf


def test_odd_walk_girth_equals_odd_girth(small_family_graphs):
    for g in small_family_graphs:
        r = girths(g)
        assert r.odd_walk_girth == r.odd_girth, g.label


@pytest.mark.parametrize("spec", SMALL_FAMILY_SPECS + ["box(C:9,P:10)", "KG:8,3"])
def test_girths_match_networkx(spec):
    nx = pytest.importorskip("networkx")
    g = build_family(spec)
    r = girths(g)
    h = nx.from_numpy_array(g.adj.astype(int))
    assert r.girth == nx.girth(h)
    assert r.diameter == (nx.diameter(h) if nx.is_connected(h) else math.inf)
    assert (r.odd_girth == math.inf) == nx.is_bipartite(h)


def test_bipartite_examples():
    assert is_bipartite(build_family("C:6"))[0]
    assert not is_bipartite(build_family("C:5"))[0]
    assert is_bipartite(build_family("tensor(K:2,K:2)"))[0]


def test_bipartite_witness_is_proper():
    for spec in ("C:6", "P:4", "box(P:1,P:2)", "cmpl(K:4)"):
        g = build_family(spec)
        ok, colour = is_bipartite(g)
        assert ok
        for u, v in g.edges():
            assert colour[u] != colour[v]


def test_oracularisable_families():
    for spec in ("C:3", "C:5", "C:7", "C:9", "C:11", "O:2", "O:3", "O:4"):
        ok, witness = is_oracularisable(build_family(spec))
        assert ok and witness is None, spec


def test_not_oracularisable_with_witness():
    for spec in ("K:4", "C:4", "cmpl(C:8)", "box(C:4,P:1)"):
        g = build_family(spec)
        ok, witness = is_oracularisable(g)
        assert not ok, spec
        a, b, c, d, a2 = witness
        assert a == a2 and len({a, b, c, d}) == 4
        for u, v in ((a, b), (b, c), (c, d), (d, a)):
            assert g.has_edge(u, v)


def test_k4_witness_is_lexicographic():
    assert is_oracularisable(build_family("K:4"))[1] == (0, 1, 2, 3, 0)


def test_bipartite_target_examples():
    k2 = build_family("K:2")
    assert not decide_bipartite_target(build_family("C:5"), k2)
    assert decide_bipartite_target(build_family("C:6"), k2)
    assert not decide_bipartite_target(build_family("K:3"), build_family("cmpl(K:2)"))


def test_bipartite_target_requires_bipartite():
    with pytest.raises(ValueError, match="bipartite"):
        decide_bipartite_target(build_family("C:4"), build_family("C:5"))


def test_bipartite_decision_agrees_with_search():
    instances = ["K:1", "K:2", "K:3", "C:3", "C:4", "C:5", "C:6", "P:2", "diamond",
                 "cmpl(K:3)", "tensor(K:2,K:2)"]
    targets = ["K:1", "K:2", "C:4", "C:6", "P:1", "P:3", "cmpl(K:2)", "box(P:1,P:2)"]
    for hs in instances:
        h = build_family(hs)
        for gs in targets:
            g = build_family(gs)
            expected = len(enumerate_homomorphisms(h, g, limit=1)) > 0
            assert decide_bipartite_target(h, g) == expected, (hs, gs)


# C:5's pentagram: a closed walk of the odd girth's length whose steps are
# all non-edges of C:5
_PENTAGRAM = [0, 2, 4, 1, 3, 0]
_SHORTEST_ODD_CLOSED_WALK = qgadget.walks._shortest_odd_closed_walk


@pytest.mark.parametrize("walk, message", [
    (lambda g, s: _PENTAGRAM, "non-edge"),
    (lambda g, s: _SHORTEST_ODD_CLOSED_WALK(g, s)[:4] + [s], "odd cycle of length 4"),
    (lambda g, s: [0, 1, 2, 1, 2, 0], "not a simple cycle"),
    # every step an edge, no vertex twice, but it ends where it did not start
    (lambda g, s: [0, 1, 2, 3, 4, 3], "not a simple cycle"),
], ids=["non-edge", "too-short", "not-simple", "not-closed"])
def test_girths_refuses_a_broken_odd_cycle(monkeypatch, walk, message):
    monkeypatch.setattr(qgadget.walks, "_shortest_odd_closed_walk", walk)
    with pytest.raises(VerificationFailure, match=message):
        girths(build_family("C:5"))


def test_girths_checks_the_walk_tables_odd_girth(monkeypatch):
    # C:5's odd distances from each vertex to itself are 5; a table that
    # says 7 used to be reported as odd_walk_girth 7, unchecked
    table = walk_table(build_family("C:5"))
    dist = table.dist.copy()
    dist[1][np.diag_indices(5)] += 2
    monkeypatch.setattr(qgadget.walks, "walk_table",
                        lambda g: dataclasses.replace(table, dist=dist))
    with pytest.raises(VerificationFailure, match="odd cycle of length 5 from root 0"):
        girths(build_family("C:5"))


def test_girths_refuses_a_broken_odd_cycle_under_python_O():
    # python -O strips assert statements, so the cross-check must not use them
    script = textwrap.dedent(f"""
        import qgadget.walks
        from qgadget import VerificationFailure, build_family
        qgadget.walks._shortest_odd_closed_walk = lambda g, s: {_PENTAGRAM}
        try:
            qgadget.walks.girths(build_family("C:5"))
        except VerificationFailure as exc:
            print("refused:", exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused:") and "non-edge" in proc.stdout
