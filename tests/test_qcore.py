"""Quantum-core certification via walk conditions."""

from dataclasses import replace

import numpy as np
import pytest

import qgadget.endo
from qgadget import (build_family, classical_only_report, girths, graph_from_edges,
                     quantum_core_certificate, verify_quantum_core_certificate)


def test_c5_certificate_lengths():
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    assert cert is not None
    assert set(cert.column_lengths.values()) == {1, 3}
    for (a, b), ell in cert.column_lengths.items():
        # adjacent pairs settle at length 1, the distance-2 pairs need 3
        assert ell == (1 if g.has_edge(a, b) else 3)
    assert set(cert.cross_lengths.values()) == {2}
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
    assert set(cert.column_lengths.values()) <= {1, 3}
    assert 3 in set(cert.column_lengths.values())
    assert set(cert.cross_lengths.values()) == {2}
    verify_quantum_core_certificate(g, cert)


def test_certificate_parity_bounds():
    for spec in ("C:5", "C:7", "C:9", "O:2", "O:3", "O:4"):
        g = build_family(spec)
        og = girths(g).odd_girth
        cert = quantum_core_certificate(g, 2 * og)
        assert cert is not None, spec
        for ell in cert.column_lengths.values():
            assert ell % 2 == 1 and ell < og, spec
        for ell in cert.cross_lengths.values():
            assert ell % 2 == 0 and ell < og - 1, spec
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
            assert again.column_lengths == reference.column_lengths
            assert again.cross_lengths == reference.cross_lengths


def test_tampered_certificate_rejected():
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    bad_columns = dict(cert.column_lengths)
    bad_columns[(0, 1)] = 2  # closed 2-walks exist everywhere
    with pytest.raises(ValueError):
        verify_quantum_core_certificate(g, replace(cert, column_lengths=bad_columns))
    missing = dict(cert.column_lengths)
    del missing[(0, 1)]
    with pytest.raises(ValueError, match="missing"):
        verify_quantum_core_certificate(g, replace(cert, column_lengths=missing))


def test_tampered_certificate_reports_the_first_pair_in_row_major_order():
    # a bad cross length at pair (0,2) and a bad column length at the later
    # pair (1,3): the column failure sits at the shorter length, so a check
    # that stopped at the first failing length would report it instead
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    columns, crosses = dict(cert.column_lengths), dict(cert.cross_lengths)
    crosses[(0, 2)] = 4  # adjacent pairs are joined by walks of length 4
    columns[(1, 3)] = 2  # closed walks of length 2 exist
    with pytest.raises(ValueError) as info:
        verify_quantum_core_certificate(g, replace(cert, column_lengths=columns,
                                                   cross_lengths=crosses))
    assert str(info.value) == "cross pair (0,2): adjacent pair joined at length 4"


@pytest.mark.parametrize("ell, message", [
    (-1, "column pair (0,1): no walk of length -1"),
    (1.0, "column pair (0,1): no walk of length 1.0"),
    (None, "column pair (0,1): no walk of length None"),
    ("1", "column pair (0,1): no walk of length 1"),
    (2**70, f"column pair (0,1): closed walk of length {2**70} exists"),
    (True, None),
    (np.int64(1), None),
])
def test_recorded_lengths_that_are_not_small_ints(ell, message):
    g = build_family("C:5")
    cert = quantum_core_certificate(g, 12)
    columns = dict(cert.column_lengths)
    columns[(0, 1)] = ell
    tampered = replace(cert, column_lengths=columns)
    if message is None:
        verify_quantum_core_certificate(g, tampered)
    else:
        with pytest.raises(ValueError) as info:
            verify_quantum_core_certificate(g, tampered)
        assert str(info.value) == message


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
    search = qgadget.endo._homomorphism_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(qgadget.endo, "_homomorphism_rows", counted)
    rep = classical_only_report(build_family("C:7"), assume_no_quantum_symmetry=True)
    assert rep.classical_core and rep.schmidt_pair_found is False
    assert len(calls) == 1
