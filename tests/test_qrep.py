"""Finite-dimensional representation constructions and verification."""

import json
import tracemalloc

import numpy as np
import pytest

from qgadget import (Endomorphism, QuantumRep, build_family, classical_rep, commutator_norm,
                     compose_reps, enumerate_homomorphisms, find_schmidt_pair,
                     four_cycle_rep, lift_box_rep, pair_swap_rep, path_shift_pair,
                     path_to_cycle_rep, projector, rep_from_json, schmidt_rep,
                     schmidt_witness, supports_disconnected, verify_rep)
from qgadget.qrep import KET0, KETPLUS, MAX_STACK_ENTRIES
from conftest import operator_norm_svd


def test_classical_identity_rep_exact():
    g = build_family("K:3")
    r = classical_rep(g, g, [0, 1, 2])
    report = verify_rep(r, oracular=True)
    assert report.passed and report.max_residual == 0.0


def test_classical_wrap_rep():
    p = build_family("P:7")
    c = build_family("C:5")
    r = classical_rep(p, c, [s % 5 for s in range(8)])
    assert verify_rep(r, oracular=True).passed


def test_classical_rep_rejects_non_homomorphism():
    g = build_family("C:5")
    with pytest.raises(ValueError, match="homomorphism"):
        classical_rep(g, build_family("K:2"), [0, 1, 0, 1, 0])


def test_schmidt_rep_diamond():
    d = build_family("diamond")
    f = Endomorphism(d, (0, 1, 0, 3))
    g = Endomorphism(d, (2, 1, 2, 3))
    r = schmidt_rep(d, f, g)
    assert verify_rep(r).passed
    assert verify_rep(r, oracular=True).passed  # disconnected supports
    w1, w2 = schmidt_witness(f, g)
    norm = commutator_norm(r, w1, w2)
    assert norm > 0.4
    assert abs(norm - 0.5) < 1e-9


def test_commutator_norm_when_start_vector_in_kernel():
    # the all-ones vector lies in the kernel of C*C here, which made the former
    # power iteration from that vector return 0.0
    u = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
    v = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    k2 = build_family("K:2")
    mats = np.zeros((2, 2, 4, 4), dtype=complex)
    mats[0, 0], mats[0, 1] = projector(u), projector(v)
    r = QuantumRep(k2, k2, 4, mats, np.array([[True, True], [False, False]]))
    c = r.entry(0, 0) @ r.entry(0, 1) - r.entry(0, 1) @ r.entry(0, 0)
    assert abs(operator_norm_svd(c) - 0.5) < 1e-12
    assert abs(commutator_norm(r, (0, 0), (0, 1)) - 0.5) < 1e-12


def test_schmidt_rep_dprime():
    dp = build_family("dprime")
    f = Endomorphism(dp, (0, 1, 2, 3, 2, 1))
    g = Endomorphism(dp, (0, 5, 4, 3, 4, 5))
    r = schmidt_rep(dp, f, g)
    assert verify_rep(r, oracular=True).passed
    assert abs(commutator_norm(r, *schmidt_witness(f, g)) - 0.5) < 1e-9
    # vertices fixed by both maps carry the identity on the diagonal
    for x in (0, 3):
        assert np.allclose(r.entry(x, x), np.eye(2))
        for y in range(6):
            if y != x:
                assert np.max(np.abs(r.entry(x, y))) == 0.0


def test_schmidt_rep_preconditions():
    d = build_family("diamond")
    f = Endomorphism(d, (0, 1, 0, 3))
    ident = Endomorphism(d, (0, 1, 2, 3))
    with pytest.raises(ValueError, match="identity"):
        schmidt_rep(d, f, ident)
    with pytest.raises(ValueError, match="disjoint"):
        schmidt_rep(d, f, f)


def test_schmidt_formula_genuinely_needs_wac():
    # a disjoint-support pair that is NOT WAC: the construction must refuse,
    # and force-building the same matrices must fail relation verification,
    # so the precondition is semantic, not decorative
    p3 = build_family("P:3")
    f = Endomorphism(p3, (0, 1, 0, 1))
    g = Endomorphism(p3, (2, 3, 2, 3))
    from qgadget import supports_disjoint, is_wac
    assert supports_disjoint(f, g) and not is_wac(f, g)
    with pytest.raises(ValueError, match="WAC"):
        schmidt_rep(p3, f, g)
    # inline the entry formula without the guard
    from qgadget.qrep import KET1, KETMINUS, QuantumRep
    p0, p1 = projector(KET0), projector(KET1)
    q0, q1 = projector(KETPLUS), projector(KETMINUS)
    half = p0 + q0 - np.eye(2)
    mats = np.zeros((4, 4, 2, 2), dtype=complex)
    for x in range(4):
        for y, term in ((x, half), (f.mapping[x], p1), (g.mapping[x], q1)):
            mats[x, y] += term
    forced = QuantumRep(p3, p3, 2, mats, np.abs(mats).max(axis=(2, 3)) > 0)
    report = verify_rep(forced)
    assert not report.passed
    assert any(v.relation == "adjacency_zero_product" for v in report.violations)


def test_pair_swap_rep_relations():
    r = pair_swap_rep(4)
    assert verify_rep(r).passed
    report = verify_rep(r, oracular=True)
    assert not report.passed
    assert any(v.relation == "oracular_commutator" for v in report.violations)


def test_pair_swap_rep_commutator_values():
    r = pair_swap_rep(4)
    # tau-norm squared of [p_00, p_22] from the exact 2x2 matrices
    c = r.entry(0, 0) @ r.entry(2, 2) - r.entry(2, 2) @ r.entry(0, 0)
    tau_sq = float(np.trace(c.conj().T @ c).real) / 2
    assert abs(tau_sq - 0.25) < 1e-12
    assert abs(commutator_norm(r, (0, 0), (2, 2)) - 0.5) < 1e-9


def test_pair_swap_rep_column_sums():
    for k in (4, 5, 6):
        r = pair_swap_rep(k)
        for b in range(k):
            col = sum((r.entry(a, b) for a in range(k)),
                      start=np.zeros((2, 2), dtype=complex))
            assert np.allclose(col, np.eye(2)), (k, b)


def test_pair_swap_requires_k4():
    with pytest.raises(ValueError):
        pair_swap_rep(3)


def test_four_cycle_rep_k4():
    g = build_family("K:4")
    r = four_cycle_rep(g, (0, 1, 2, 3))
    report = verify_rep(r)
    assert report.passed and report.max_residual < 1e-9
    assert abs(commutator_norm(r, (0, 0), (1, 1)) - 0.5) < 1e-9


def test_four_cycle_rep_c4():
    r = four_cycle_rep(build_family("C:4"), (0, 1, 2, 3))
    assert verify_rep(r).passed
    assert commutator_norm(r, (0, 0), (1, 1)) > 0


def test_four_cycle_rep_rejects_non_cycle():
    with pytest.raises(ValueError, match="4-cycle"):
        four_cycle_rep(build_family("C:5"), (0, 1, 2, 3))
    with pytest.raises(ValueError, match="distinct"):
        four_cycle_rep(build_family("K:4"), (0, 1, 2, 1))


def test_counit_laws():
    d = build_family("diamond")
    f = Endomorphism(d, (0, 1, 0, 3))
    g = Endomorphism(d, (2, 1, 2, 3))
    r = schmidt_rep(d, f, g)
    ident = classical_rep(d, d, range(4))
    left = compose_reps(ident, r)
    right = compose_reps(r, ident)
    for out in (left, right):
        assert out.dim == r.dim
        assert np.array_equal(out.present, r.present)
        assert np.allclose(out.mats, r.mats, atol=1e-12)


def test_compose_matches_pinned_composition_of_classical_maps():
    # composing classical representations agrees with composing the maps
    h, g, k = build_family("C:6"), build_family("K:2"), build_family("K:3")
    m1 = enumerate_homomorphisms(h, g, limit=1)[0]
    m2 = enumerate_homomorphisms(g, k, limit=1)[0]
    composed = compose_reps(classical_rep(h, g, m1), classical_rep(g, k, m2))
    direct = classical_rep(h, k, [m2[m1[u]] for u in range(h.n)])
    assert np.array_equal(composed.present, direct.present)
    assert np.array_equal(composed.mats, direct.mats)
    assert verify_rep(composed).passed


def test_compose_rejects_mismatch():
    g = build_family("K:3")
    r = classical_rep(g, g, [0, 1, 2])
    s = classical_rep(build_family("C:4"), build_family("K:2"),
                      [0, 1, 0, 1])
    with pytest.raises(ValueError):
        compose_reps(r, s)


def test_composite_above_the_stack_bound_refused_before_allocation():
    # two documents within the bound, whose composite has 4096^2 numbers
    k1 = build_family("K:1")
    doc = QuantumRep(k1, k1, 64, np.eye(64, dtype=complex)[None, None],
                     np.ones((1, 1), bool)).to_json()
    r = rep_from_json(json.loads(json.dumps(doc)))
    assert verify_rep(r).passed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(MAX_STACK_ENTRIES)):
            compose_reps(r, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_path_shift_pair_disconnected():
    f, g = path_shift_pair(4, 0, 3)
    assert supports_disconnected(f, g)
    assert f.mapping == (2, 1, 2, 3, 4)
    assert g.mapping == (0, 1, 2, 1, 2)


def test_path_to_cycle_rep():
    r = path_to_cycle_rep(4, 0, 3, 2)
    assert r.dim == 2
    assert verify_rep(r).passed
    # the designated entries are the computational and Hadamard projections
    assert np.allclose(r.entry(0, 0), projector(KET0))
    assert np.allclose(r.entry(3, 3), projector(KETPLUS))
    assert abs(commutator_norm(r, (0, 0), (3, 3)) - 0.5) < 1e-9


def test_path_to_cycle_rep_requires_gap():
    with pytest.raises(ValueError, match="t0"):
        path_to_cycle_rep(4, 1, 2, 2)


def test_lift_box_rep():
    r = path_to_cycle_rep(4, 0, 3, 2)
    lifted = lift_box_rep(r, 5)
    assert lifted.domain.n == 25 and lifted.dim == 2
    assert verify_rep(lifted).passed
    # lifted witness at (a0,s0)=(0,0), (b0,t0)=(0,3): entries (s0-a0), (t0-b0) mod 5
    u = (0 * 5 + 0, 0)
    v = (0 * 5 + 3, 3)
    assert abs(commutator_norm(lifted, u, v) - 0.5) < 1e-9


def test_lift_box_rep_classical_stays_classical():
    p = build_family("P:4")
    c = build_family("C:5")
    r = classical_rep(p, c, [s % 5 for s in range(5)])
    lifted = lift_box_rep(r, 5)
    assert lifted.dim == 1
    assert verify_rep(lifted).passed


def test_lift_box_rep_rejects_wrong_codomain():
    g = build_family("K:3")
    r = classical_rep(g, g, [0, 1, 2])
    with pytest.raises(ValueError, match="cycle"):
        lift_box_rep(r, 5)


def test_commutator_norm_against_svd_oracle():
    r = pair_swap_rep(5)
    for pair in (((0, 0), (2, 2)), ((0, 0), (0, 1)), ((0, 0), (4, 4)), ((0, 1), (2, 3))):
        a = r.entry(*pair[0])
        b = r.entry(*pair[1])
        expected = operator_norm_svd(a @ b - b @ a)
        assert abs(commutator_norm(r, *pair) - expected) < 1e-9
    fc = four_cycle_rep(build_family("K:4"), (0, 1, 2, 3))
    for pair in (((0, 0), (1, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 3))):
        a = fc.entry(*pair[0])
        b = fc.entry(*pair[1])
        expected = operator_norm_svd(a @ b - b @ a)
        assert abs(commutator_norm(fc, *pair) - expected) < 1e-9


def test_lift_preserves_verification_for_larger_cycle():
    for (s0, t0) in ((0, 2), (1, 4), (2, 5), (0, 5)):
        r = path_to_cycle_rep(5, s0, t0, 3)
        assert verify_rep(r).passed, (s0, t0)
        lifted = lift_box_rep(r, 7)
        assert verify_rep(lifted).passed, (s0, t0)


def test_commutator_norm_commuting_is_zero():
    g = build_family("K:3")
    r = classical_rep(g, g, [0, 1, 2])
    assert commutator_norm(r, (0, 0), (1, 1)) == 0.0


def test_commutator_norm_basic_value():
    expected = operator_norm_svd(projector(KET0) @ projector(KETPLUS)
                                 - projector(KETPLUS) @ projector(KET0))
    assert abs(expected - 0.5) < 1e-12


def test_verify_rep_reports_violations_not_raises():
    g = build_family("K:2")
    bad = classical_rep(g, g, [0, 1])
    bad.mats[0, 1] = 0.5
    bad.present[0, 1] = True
    report = verify_rep(bad)
    assert not report.passed
    relations = {v.relation for v in report.violations}
    assert "idempotent" in relations and "row_sum_identity" in relations


def test_verify_rep_fails_on_nan_entry():
    # a NaN residual once compared as no larger than the running maximum, so a
    # representation full of NaN entries passed
    g = build_family("K:2")
    bad = classical_rep(g, g, [0, 1])
    bad.mats[0, 0] = np.nan
    report = verify_rep(bad, oracular=True)
    assert not report.passed
    assert ("hermitian", (0, 0)) in {(v.relation, v.where) for v in report.violations}


def test_rep_json_round_trip_keeps_explicit_zero_entries():
    g = build_family("K:2")
    doc = classical_rep(g, g, [0, 1]).to_json()
    doc["mats"]["0,1"] = [[[0.0, 0.0]]]
    back = rep_from_json(json.loads(json.dumps(doc)))
    assert back.present.tolist() == [[True, True], [False, True]]
    assert back.to_json() == doc
    assert verify_rep(back).passed


def test_rep_json_round_trip():
    d = build_family("diamond")
    cert = find_schmidt_pair(d, oracular=True)
    r = schmidt_rep(d, cert.f, cert.g)
    back = rep_from_json(json.loads(json.dumps(r.to_json())))
    assert back.dim == r.dim and np.array_equal(back.present, r.present)
    assert np.allclose(back.mats, r.mats, atol=1e-15)
    assert verify_rep(back, oracular=True).passed


def test_constructions_verify_across_battery(endo_battery):
    # every Schmidt certificate found on the battery yields a verified rep
    for g in endo_battery:
        if g.n > 8:
            continue
        for oracular in (False, True):
            cert = find_schmidt_pair(g, oracular=oracular)
            if cert is None:
                continue
            r = schmidt_rep(g, cert.f, cert.g)
            assert verify_rep(r, oracular=False).passed, (g.label, oracular)
            if oracular:
                assert verify_rep(r, oracular=True).passed, g.label
            assert commutator_norm(r, *schmidt_witness(cert.f, cert.g)) > 0.4
