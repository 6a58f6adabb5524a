"""The parity-distance walk layer against per-length bool-power references.

``bool_powers`` builds the walk-existence tensor the slow way: one bool-dtype
matrix power per length, which cannot overflow.  ``certificate_loop`` and
``obstruction_loop`` are the per-length algorithms that read such a tensor
directly: minimal lengths found by scanning l = 1, 2, ..., and the first
obstruction length in increasing order.  ``conftest.verify_loop`` finds the
first failing pair of a certificate in row-major order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgadget import (GadgetCandidate, build_family, distance, graph_from_edges,
                     quantum_core_certificate, verify_quantum_core_certificate,
                     walk_obstruction, walk_table)
from qgadget.gadget import default_obstruction_lmax
from qgadget.qcore import QuantumCoreCertificate
from conftest import verify_loop


def bool_powers(g, lmax):
    """exists[l][u, v] == there is a walk of length l from u to v."""
    adj = g.adj.astype(bool)
    exists = [np.eye(g.n, dtype=bool)]
    for _ in range(lmax):
        exists.append(exists[-1] @ adj)
    return exists


def certificate_loop(g, lmax):
    """The minimal column and cross lengths as lists over the pairs a < b in
    row-major order (cross: the non-adjacent ones), or None."""
    exists = bool_powers(g, lmax)
    closed_any = [bool(e.diagonal().any()) for e in exists]
    adjacent_any = [bool(any(e[u, v] for u, v in g.edges())) for e in exists]
    column, cross = [], []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            found = next((ell for ell in range(1, lmax + 1)
                          if exists[ell][a, b] and not closed_any[ell]), None)
            if found is None:
                return None
            column.append(found)
            if not g.has_edge(a, b):
                found = next((ell for ell in range(1, lmax + 1)
                              if exists[ell][a, b] and not adjacent_any[ell]), None)
                if found is None:
                    return None
                cross.append(found)
    return column, cross


def obstruction_loop(c, lmax):
    tg, ta = bool_powers(c.gadget, lmax), bool_powers(c.target, lmax)
    for ell in range(lmax + 1):
        if tg[ell][c.x, c.y]:
            missing = np.argwhere(~ta[ell])
            if len(missing):
                return ell, tuple(int(z) for z in missing[0])
    return None


@st.composite
def graphs(draw, min_n=0, max_n=9):
    """Sparse and dense graphs alike, so isolated vertices and disconnected
    parts are common."""
    n = draw(st.integers(min_n, max_n))
    density = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    return graph_from_edges(n, edges)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(0, 24))
def test_has_walk_and_distance_match_bool_powers(g, lmax):
    t = walk_table(g, lmax)
    exists = bool_powers(g, lmax)
    reachable = np.logical_or.reduce(bool_powers(g, max(g.n - 1, 0)))
    for ell in range(lmax + 1):
        assert np.array_equal(t.reach(ell), exists[ell]), ell
        for u in range(g.n):
            for v in range(g.n):
                assert t.has_walk(ell, u, v) == exists[ell][u, v]
    for u in range(g.n):
        for v in range(g.n):
            first = next((ell for ell in range(lmax + 1) if exists[ell][u, v]), None)
            if first is not None:
                assert distance(t, u, v) == first
            elif reachable[u, v]:
                with pytest.raises(ValueError, match="lmax"):
                    distance(t, u, v)
            else:
                assert distance(t, u, v) == math.inf
    with pytest.raises(ValueError, match="outside"):
        t.has_walk(lmax + 1, 0, 0)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 24))
def test_certificate_matches_per_length_loop(g, lmax):
    cert = quantum_core_certificate(g, lmax)
    expected = certificate_loop(g, lmax)
    if expected is None:
        assert cert is None
    else:
        assert (cert.column_lengths.tolist(), cert.cross_lengths.tolist()) == expected
        verify_quantum_core_certificate(g, cert)


@pytest.mark.parametrize("spec", ["C:5", "C:9", "O:3", "KG:8,3", "box(C:5,P:3)", "diamond"])
def test_certificate_matches_per_length_loop_on_families(spec):
    g = build_family(spec)
    lmax = 2 * g.n + 2
    cert = quantum_core_certificate(g, lmax)
    expected = certificate_loop(g, lmax)
    assert (None if cert is None
            else (cert.column_lengths.tolist(), cert.cross_lengths.tolist())) == expected


@st.composite
def certificates(draw):
    """Recorded lengths drawn at random, negative ones and ones past every
    valid length among them, some arrays a length short or long, so that
    every failure message occurs.  Some start from the finder's certificate,
    on certified families as well, and redraw a few lengths, so that valid
    columns and failing crosses occur too."""
    g = draw(st.one_of(graphs(min_n=1, max_n=7),
                       st.sampled_from(["K:3", "K:5", "C:5", "C:7"]).map(build_family)))
    n_pairs = g.n * (g.n - 1) // 2
    found = quantum_core_certificate(g, 2 * g.n + 2)
    lengths = st.integers(-2, 2 * g.n + 3)
    arrays = []
    for size, valid in ((n_pairs, None if found is None else found.column_lengths),
                        (n_pairs - g.num_edges, None if found is None else found.cross_lengths)):
        size = max(size + draw(st.sampled_from([0] * 18 + [-1, 1])), 0)
        values = draw(st.lists(lengths, min_size=size, max_size=size))
        if valid is not None and len(valid) == size and draw(st.booleans()):
            # the finder's lengths, at most two of them redrawn
            changed = draw(st.sets(st.integers(0, size), max_size=2))
            values = [v if i in changed else ell
                      for i, (v, ell) in enumerate(zip(values, valid.tolist()))]
        arrays.append(np.array(values, dtype=np.int64))
    return g, QuantumCoreCertificate(g, *arrays)


@settings(max_examples=300, deadline=None)
@given(certificates())
def test_verify_raises_the_first_failure_of_the_per_pair_loop(case):
    g, cert = case
    expected = verify_loop(g, cert)
    if expected is None:
        verify_quantum_core_certificate(g, cert)
    else:
        with pytest.raises(ValueError) as info:
            verify_quantum_core_certificate(g, cert)
        assert str(info.value) == expected


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=2, max_n=8), graphs(min_n=1, max_n=6),
       st.one_of(st.none(), st.integers(0, 30)), st.data())
def test_walk_obstruction_matches_per_length_loop(gadget, target, lmax, data):
    x = data.draw(st.integers(0, gadget.n - 1))
    y = data.draw(st.integers(0, gadget.n - 1).filter(lambda v: v != x))
    c = GadgetCandidate(gadget, x, y, target)
    got = walk_obstruction(c, lmax)
    expected = obstruction_loop(c, default_obstruction_lmax(c) if lmax is None else lmax)
    assert (None if got is None else (got.length, got.pair)) == expected
