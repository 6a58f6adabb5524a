"""Quantum-core certification via walk conditions."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qgadget.endo
from qgadget.cli import _json_pieces, _jsonable, _render_text
from qgadget import (Graph, QuantumCoreCertificate, build_family, classical_only_report, girths,
                     graph_from_edges, quantum_core_certificate,
                     verify_quantum_core_certificate)
from conftest import certificate_json, verify_loop


def _pairs(g):
    """The pairs a < b in the order of the certificate arrays, and the
    non-adjacent ones among them, as lists of tuples."""
    pairs = list(zip(*(v.tolist() for v in np.triu_indices(g.n, 1))))
    return pairs, [p for p in pairs if not g.has_edge(*p)]


def _tampered(g, cert, column=(), cross=()):
    """cert with the lengths of some (a, b) pairs replaced."""
    pairs, cross_pairs = _pairs(g)
    columns, crosses = cert.column_lengths.copy(), cert.cross_lengths.copy()
    for pair, ell in column:
        columns[pairs.index(pair)] = ell
    for pair, ell in cross:
        crosses[cross_pairs.index(pair)] = ell
    return replace(cert, column_lengths=columns, cross_lengths=crosses)


def test_c5_certificate_lengths():
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    assert cert is not None and cert.graph is g
    assert set(cert.column_lengths.tolist()) == {1, 3}
    pairs, cross_pairs = _pairs(g)
    assert len(cert.column_lengths) == len(pairs) and len(cert.cross_lengths) == len(cross_pairs)
    for (a, b), ell in zip(pairs, cert.column_lengths.tolist()):
        # adjacent pairs settle at length 1, the distance-2 pairs need 3
        assert ell == (1 if g.has_edge(a, b) else 3)
    assert set(cert.cross_lengths.tolist()) == {2}
    verify_quantum_core_certificate(g, cert)


def test_certificate_arrays_are_read_only_copies():
    g = build_family("C:5")
    columns = quantum_core_certificate(g, 12).column_lengths.copy()
    cert = QuantumCoreCertificate(g, columns, np.full(5, 2))
    columns[0] = 2
    assert cert.column_lengths[0] == 1
    with pytest.raises(ValueError):
        cert.column_lengths[0] = 2
    verify_quantum_core_certificate(g, cert)


def test_petersen_certificate_exists():
    g = build_family("O:3")
    cert = quantum_core_certificate(g, 12)
    assert cert is not None
    verify_quantum_core_certificate(g, cert)


def test_kneser_8_3_certificate():
    g = build_family("KG:8,3")
    cert = quantum_core_certificate(g, 8)
    assert cert is not None
    # non-adjacent distinct pairs need length 3; adjacent pairs settle at 1
    assert set(cert.column_lengths.tolist()) <= {1, 3}
    assert 3 in set(cert.column_lengths.tolist())
    assert set(cert.cross_lengths.tolist()) == {2}
    verify_quantum_core_certificate(g, cert)


def test_certificate_parity_bounds():
    for spec in ("C:5", "C:7", "C:9", "O:2", "O:3", "O:4"):
        g = build_family(spec)
        og = girths(g).odd_girth
        cert = quantum_core_certificate(g, 2 * og)
        assert cert is not None, spec
        assert (cert.column_lengths % 2 == 1).all() and (cert.column_lengths < og).all(), spec
        assert (cert.cross_lengths % 2 == 0).all() and (cert.cross_lengths < og - 1).all(), spec
        verify_quantum_core_certificate(g, cert)


def test_certificate_inconclusive_on_diamond():
    # triangles plus even closed walks exhaust every length
    assert quantum_core_certificate(build_family("diamond"), 20) is None


def test_certificate_inconclusive_on_bipartite():
    # bipartite graphs have no odd walks between adjacent pairs... but the
    # column condition already fails: distinct same-side pairs need even
    # lengths, and even closed walks always exist
    assert quantum_core_certificate(build_family("C:6"), 20) is None


@pytest.mark.parametrize("g", [build_family("C:6"), build_family("P:3"),
                               build_family("diamond"), graph_from_edges(4, [])],
                         ids=["C:6", "P:3", "diamond", "edgeless"])
def test_certificate_inconclusive_beyond_the_no_walk_sentinel(g):
    # a pair with no valid length must stay missing however large lmax is,
    # also past the int32 "no walk" sentinel of the parity distances
    for lmax in (2**31 - 2, 2**31 - 1, 2**31, 10**12):
        assert quantum_core_certificate(g, lmax) is None


def test_certificate_lmax_monotone():
    for spec in ("C:7", "O:3"):
        g = build_family(spec)
        og = girths(g).odd_girth
        reference = quantum_core_certificate(g, og)
        assert reference is not None
        for extra in (2, 5, 10):
            again = quantum_core_certificate(g, og + extra)
            assert np.array_equal(again.column_lengths, reference.column_lengths)
            assert np.array_equal(again.cross_lengths, reference.cross_lengths)


def test_tampered_certificate_rejected():
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    # closed 2-walks exist everywhere, and no 2-walk joins the adjacent 0 and 1
    with pytest.raises(ValueError, match=r"^column pair \(0,1\): no walk of length 2$"):
        verify_quantum_core_certificate(g, _tampered(g, cert, column=[((0, 1), 2)]))
    with pytest.raises(ValueError, match=r"^column pair \(0,2\): closed walk of length 2 exists$"):
        verify_quantum_core_certificate(g, _tampered(g, cert, column=[((0, 2), 2)]))
    with pytest.raises(ValueError, match=r"^cross pair \(0,2\): no walk of length 1$"):
        verify_quantum_core_certificate(g, _tampered(g, cert, cross=[((0, 2), 1)]))
    # a pair left out leaves an array one length short
    short = replace(cert, column_lengths=cert.column_lengths[1:])
    with pytest.raises(ValueError, match="^certificate holds 9 column lengths for 10 column"):
        verify_quantum_core_certificate(g, short)
    with pytest.raises(ValueError, match="^certificate holds 4 cross lengths for 5 cross pairs$"):
        verify_quantum_core_certificate(g, replace(cert, cross_lengths=cert.cross_lengths[:-1]))
    # a certificate of another graph has arrays of the wrong length
    with pytest.raises(ValueError, match="column lengths"):
        verify_quantum_core_certificate(build_family("C:7"), cert)
    # the empty certificate is complete only on at most one vertex
    empty = np.zeros(0, dtype=int)
    for spec in ("K:1", "P:0", "K:2"):
        h = build_family(spec)
        blank = QuantumCoreCertificate(h, empty, empty)
        if h.n > 1:
            with pytest.raises(ValueError, match="^certificate holds 0 column lengths for 1"):
                verify_quantum_core_certificate(h, blank)
        else:
            verify_quantum_core_certificate(h, blank)
            assert json.loads("".join(_json_pieces(blank))) == {
                "graph": spec, "column_lengths": {}, "cross_lengths": {}}


def test_tampered_certificate_reports_the_first_pair_in_row_major_order():
    # a bad cross length at pair (0,2) and a bad column length at the later
    # pair (1,3): the column failure sits at the shorter length, so a check
    # that stopped at the first failing length would report it instead
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    # adjacent pairs are joined by walks of length 4, closed walks of length 2 exist
    tampered = _tampered(g, cert, column=[((1, 3), 2)], cross=[((0, 2), 4)])
    with pytest.raises(ValueError) as info:
        verify_quantum_core_certificate(g, tampered)
    assert str(info.value) == "cross pair (0,2): adjacent pair joined at length 4"


def _outcome(g, cert):
    """None when the verifier passes cert, else its message."""
    try:
        verify_quantum_core_certificate(g, cert)
    except ValueError as exc:
        return str(exc)
    return None


@st.composite
def _certificates(draw):
    """Graphs of up to 30 vertices, sparse and dense, and certified cycles
    and odd graphs, with lengths drawn at random (negative and huge ones
    among them) or the finder's lengths with a few redrawn."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = build_family(draw(st.sampled_from(["C:5", "C:11", "C:29", "O:3", "petersen"])))
    else:
        n = draw(st.integers(1, 30))
        upper = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.9])), 1)
        g = Graph(n, upper | upper.T)
    found = quantum_core_certificate(g, 2 * g.n + 2)
    n_pairs = g.n * (g.n - 1) // 2
    arrays = []
    for size, valid in ((n_pairs, None if found is None else found.column_lengths),
                        (n_pairs - g.num_edges, None if found is None else found.cross_lengths)):
        drawn = rng.integers(-2, 2 * g.n + 4, size=size)
        drawn[rng.random(size) < 0.05] = draw(st.sampled_from([2**40, 2**40 + 1, 2**62]))
        if valid is not None and draw(st.booleans()):
            keep = rng.random(size) < draw(st.sampled_from([0.0, 0.9, 0.99]))
            drawn = np.where(keep, valid, drawn)
        arrays.append(drawn)
    return g, QuantumCoreCertificate(g, *arrays)


@settings(max_examples=200, deadline=None)
@given(_certificates())
def test_verifier_matches_the_bool_power_reference(case):
    g, cert = case
    assert _outcome(g, cert) == verify_loop(g, cert)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 130), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.sampled_from(["small", "signed", "huge"]), st.sampled_from([np.int32, np.int64]))
def test_certificate_maps_match_the_dict_reference(n, seed, density, spread, dtype):
    # the "a,b" maps written from arrays against the dicts built key by key,
    # in JSON (sorted string keys: "1,10" < "1,2" < "10,2") and in text mode
    # (row-major pairs); "huge" lengths are too far apart for a table over
    # their range
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    g = Graph(n, upper | upper.T)
    n_pairs = n * (n - 1) // 2
    lengths = []
    for size in (n_pairs, n_pairs - g.num_edges):
        drawn = rng.integers(1 if spread == "small" else -2, 2 * n + 4, size=size)
        if spread == "huge":
            far = rng.random(size) < 0.05
            drawn[far] = rng.choice([2**31 - 1, -2**31, 2**30], size=int(far.sum()))
        lengths.append(drawn.astype(dtype))
    cert = QuantumCoreCertificate(g, *lengths)
    want = certificate_json(cert)
    assert "".join(_json_pieces(cert)) == json.dumps(want, sort_keys=True)
    assert _render_text(_jsonable(cert)) == _render_text(want)


@pytest.mark.parametrize("spec", ["K:258", "K:300"])
def test_products_are_exact_beyond_small_integer_counts(spec):
    # every off-diagonal entry of A^2 is n - 2: 256 on K:258, which wraps
    # to 0 in uint8, and 298 on K:300, past int8
    g = build_family(spec)
    cert = quantum_core_certificate(g, 3)
    verify_quantum_core_certificate(g, cert)
    with pytest.raises(ValueError, match=r"^column pair \(0,1\): closed walk of length 2 exists$"):
        verify_quantum_core_certificate(g, _tampered(g, cert, column=[((0, 1), 2)]))


@pytest.mark.parametrize("ell", [2**40, 2**40 + 1])
def test_huge_recorded_length_gets_the_reference_verdict(ell):
    # pair (0,1) comes first; the finder's lengths are int32
    g = build_family("C:9")
    cert = quantum_core_certificate(g, 20)
    cert = replace(cert, column_lengths=[ell] + cert.column_lengths.tolist()[1:])
    assert _outcome(g, cert) == verify_loop(g, cert) == \
        f"column pair (0,1): closed walk of length {ell} exists"


REFUSED = "refused at construction"


@pytest.mark.parametrize("ell, message", [
    (-1, "column pair (0,1): no walk of length -1"),
    (1.0, REFUSED),
    (None, REFUSED),
    ("1", REFUSED),
    (2**70, REFUSED),
    (True, None),
    (np.int64(1), None),
])
def test_recorded_lengths_that_are_not_small_ints(ell, message):
    # pair (0,1) comes first; the others keep their valid lengths
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    columns = [ell] + cert.column_lengths.tolist()[1:]
    if message == REFUSED:
        # a float, None, a string or an int beyond int64 makes no integer array
        with pytest.raises(ValueError, match="^column_lengths must be a 1-D array of integers"):
            replace(cert, column_lengths=columns)
        return
    tampered = replace(cert, column_lengths=columns)
    if message is None:
        verify_quantum_core_certificate(g, tampered)
    else:
        with pytest.raises(ValueError) as info:
            verify_quantum_core_certificate(g, tampered)
        assert str(info.value) == message


@pytest.mark.parametrize("lengths", [
    np.ones(10, dtype=bool), np.ones(10), np.ones((2, 5), dtype=int), np.int64(1),
    np.full(10, 1, dtype=np.uint64), np.array([1] * 9 + [None]), [],
], ids=["bool", "float", "2-D", "0-D", "uint64", "object", "empty-list"])
def test_certificate_refuses_arrays_that_are_not_1d_integers(lengths):
    cert = quantum_core_certificate(build_family("C:5"), 12)
    with pytest.raises(ValueError, match="^column_lengths must be a 1-D array of integers"):
        replace(cert, column_lengths=lengths)
    with pytest.raises(ValueError, match="^cross_lengths must be a 1-D array of integers"):
        replace(cert, cross_lengths=lengths)


def test_certified_graphs_admit_no_schmidt_pair():
    # cross-module coherence: a certified quantum core with only classical
    # endomorphisms cannot carry a Schmidt pair, and indeed the exhaustive
    # search finds none on any certified graph small enough to scan
    from qgadget import find_schmidt_pair
    for spec in ("C:5", "C:7", "C:9", "O:2", "O:3"):
        g = build_family(spec)
        assert quantum_core_certificate(g, 2 * g.n + 2) is not None
        assert find_schmidt_pair(g, oracular=False) is None, spec
        assert find_schmidt_pair(g, oracular=True) is None, spec


def test_classical_only_chain_c7():
    g = build_family("C:7")
    rep = classical_only_report(g, assume_no_quantum_symmetry=True)
    assert rep.quantum_core_certified and rep.classical_core
    assert rep.conclusion.startswith("only classical endomorphisms")

    conservative = classical_only_report(g, assume_no_quantum_symmetry=False)
    assert conservative.quantum_core_certified
    assert "contingent" in conservative.conclusion


def test_classical_only_chain_diamond_broken():
    rep = classical_only_report(build_family("diamond"), assume_no_quantum_symmetry=True)
    assert not rep.quantum_core_certified
    assert rep.classical_core is False
    assert rep.schmidt_pair_found is True
    assert "inconclusive" in rep.conclusion and "Schmidt" in rep.conclusion


def test_classical_only_report_enumerates_once(monkeypatch):
    calls = []
    search = qgadget.endo._homomorphism_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(qgadget.endo, "_homomorphism_blocks", counted)
    rep = classical_only_report(build_family("C:7"), assume_no_quantum_symmetry=True)
    assert rep.classical_core and rep.schmidt_pair_found is False
    assert len(calls) == 1
