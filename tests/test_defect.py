"""Weighted-algebra defects for finite-dimensional strategies."""

import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qgadget import (assignment_defect, build_family, cc_defect, classical_strategy,
                     commutator_defect, cv_defect, enumerate_homomorphisms, projector,
                     strategy_from_json, strategy_from_vertex_pvms, validate_strategy)
from qgadget.qrep import KET0, KET1, KETMINUS, KETPLUS, MAX_STACK_ENTRIES
from conftest import assignment_game_value, set_edge_pvms, tuples


P0, P1 = projector(KET0), projector(KET1)
Q0, Q1 = projector(KETPLUS), projector(KETMINUS)
Z2 = np.zeros((2, 2), dtype=complex)


def test_perfect_classical_assignment_defect_zero():
    h, g = build_family("C:6"), build_family("K:3")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    s = classical_strategy(h, g, hom)
    assert assignment_defect(s) == 0.0


def test_constant_assignment_full_defect():
    s = classical_strategy(build_family("K:2"), build_family("K:3"), [0, 0])
    assert assignment_defect(s) == 1.0


def test_dim2_assignment_defect_value():
    # computational basis at one endpoint, Hadamard at the other, target K_4
    h, g = build_family("K:2"), build_family("K:4")
    s = strategy_from_vertex_pvms(h, g, 2, {0: [P0, P1, Z2, Z2], 1: [Q0, Q1, Z2, Z2]})
    # oracle: defect = 1 - game value, with value summed over satisfied pairs
    # via tau(P^x_a P^y_b); each directed edge contributes 1/4 + 1/4
    value = 0.0
    for (x, y) in h.directed_edges():
        for a in range(4):
            for b in range(4):
                if g.has_edge(a, b):
                    px = s.vertex_pvms[x][a]
                    py = s.vertex_pvms[y][b]
                    value += 0.5 * float(np.trace(px @ py).real) / 2
    assert abs(value - 0.5) < 1e-12
    assert abs(assignment_defect(s) - (1.0 - value)) < 1e-12


def test_cv_defect_zero_for_consistent_classical():
    h, g = build_family("C:6"), build_family("K:3")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    s = classical_strategy(h, g, hom, with_edge_pvms=True)
    assert cv_defect(s) == 0.0


def test_cv_defect_positive_when_vertex_pvm_permuted():
    h, g = build_family("K:2"), build_family("K:3")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    s = classical_strategy(h, g, hom, with_edge_pvms=True)
    # permute one vertex PVM so the edge outcomes disagree with it (the fancy
    # index copies, so the stacked family is not read while it is written)
    s.vertex_pvms[0] = s.vertex_pvms[0][[1, 2, 0]]
    # oracle at dimension 1: each directed edge has one Phi outcome, and the
    # slot at vertex 0 now mismatches, contributing w/2 * 1 each
    expected = sum(float(w) / 2 for (x, y), w in s.dist.items())
    assert abs(cv_defect(s) - expected) < 1e-12
    assert cv_defect(s) > 0


def test_cv_defect_single_edge_dim2():
    h, g = build_family("K:2"), build_family("K:3")
    vertex = {0: [P0, P1, Z2], 1: [Q0, Q1, Z2]}
    # edge PVM aligned with vertex 0's basis on outcomes (0,1) and (1,0)
    edge = {(0, 1): {(0, 1): P0, (1, 0): P1},
            (1, 0): {(1, 0): P0, (0, 1): P1}}
    s = strategy_from_vertex_pvms(h, g, 2, vertex)
    set_edge_pvms(s, edge)
    # oracle: hand 2x2 traces.  For directed edge (0,1):
    #   slot x=0: Phi_(0,1)(1-P0) = 0 and Phi_(1,0)(1-P1) = 0;
    #   slot y=1: Phi_(0,1)(1-Q1) with |Phi|^2 trace = tau(Q0 P0 Q0)... compute directly
    expected = 0.0
    eye = np.eye(2)
    for (x, y), fam in edge.items():
        for (a, b), phi in fam.items():
            for endpoint, c in ((x, a), (y, b)):
                m = phi @ (eye - vertex[endpoint][c])
                expected += 0.25 * float(np.trace(m.conj().T @ m).real) / 2
    got = cv_defect(s)
    assert abs(got - expected) < 1e-12
    assert got > 0


def test_cc_defect_zero_for_consistent_classical():
    h, g = build_family("C:4"), build_family("K:2")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    s = classical_strategy(h, g, hom, with_edge_pvms=True)
    pairs = [((0, 1), (1, 2)), ((1, 2), (0, 1)), ((0, 1), (0, 1))]
    pair_dist = {p: Fraction(1, len(pairs)) for p in pairs}
    assert cc_defect(s, pair_dist) == 0.0


def test_cc_defect_hardwired_disagreement():
    # two edges sharing vertex 1; dimension-1 outcomes that disagree at it
    h, g = build_family("P:2"), build_family("K:3")
    one = np.ones((1, 1), dtype=complex)
    vertex = {u: [one.copy(), np.zeros((1, 1), dtype=complex),
                  np.zeros((1, 1), dtype=complex)] for u in range(3)}
    s = strategy_from_vertex_pvms(h, g, 1, vertex)
    set_edge_pvms(s, {(0, 1): {(0, 1): one}, (1, 2): {(2, 0): one},
                      (1, 0): {(1, 0): one}, (2, 1): {(0, 2): one}})
    # outcomes at the shared vertex 1: edge (0,1) says 1, edge (1,2) says 2
    pair_dist = {((0, 1), (1, 2)): Fraction(1, 2), ((1, 2), (0, 1)): Fraction(1, 2)}
    assert cc_defect(s, pair_dist) == 1.0


def test_cc_defect_quantum_value():
    h, g = build_family("K:2"), build_family("K:4")
    vertex = {0: [P0, P1, Z2, Z2], 1: [Q0, Q1, Z2, Z2]}
    s = strategy_from_vertex_pvms(h, g, 2, vertex)
    edge = {(0, 1): {(0, 1): P0, (2, 3): P1}, (1, 0): {(1, 0): Q0, (3, 2): Q1}}
    set_edge_pvms(s, edge)
    pair_dist = {((0, 1), (1, 0)): Fraction(1)}
    # oracle: shared slots (0<->1): disagreement pairs among outcomes
    expected = 0.0
    for b1, phi1 in edge[(0, 1)].items():
        for b2, phi2 in edge[(1, 0)].items():
            if b1[0] != b2[1] or b1[1] != b2[0]:
                m = phi1 @ phi2
                expected += float(np.trace(m.conj().T @ m).real) / 2
    got = cc_defect(s, pair_dist)
    assert abs(got - expected) < 1e-12
    assert got > 0


def test_commutator_defect_values():
    h, g = build_family("K:2"), build_family("K:2")
    s = strategy_from_vertex_pvms(h, g, 2, {0: [P0, P1], 1: [Q0, Q1]})
    # four commutator terms, each of squared trace norm 1/4
    assert abs(commutator_defect(s, 0, 1) - 1.0) < 1e-9
    commuting = strategy_from_vertex_pvms(h, g, 2, {0: [P0, P1], 1: [P0, P1]})
    assert commutator_defect(commuting, 0, 1) == 0.0
    classical = classical_strategy(h, g, [0, 1])
    assert commutator_defect(classical, 0, 1) == 0.0


def test_defects_zero_exactly_on_consistent_classical():
    pairs = [("K:2", "K:3"), ("C:4", "K:2"), ("P:2", "C:4"), ("C:5", "K:3"),
             ("K:3", "K:3"), ("P:3", "K:2")]
    for hs, gs in pairs:
        h, g = build_family(hs), build_family(gs)
        assert h.n <= 5
        for hom in enumerate_homomorphisms(h, g):
            s = classical_strategy(h, g, hom, with_edge_pvms=True)
            assert assignment_defect(s) == 0.0, (hs, gs, hom)
            assert cv_defect(s) == 0.0, (hs, gs, hom)
        # non-homomorphisms have strictly positive assignment defect
        homs = set(tuples(enumerate_homomorphisms(h, g)))
        from itertools import product as iproduct
        count = 0
        for mp in iproduct(range(g.n), repeat=h.n):
            if mp not in homs:
                assert assignment_defect(classical_strategy(h, g, mp)) > 0.0
                count += 1
            if count >= 10:
                break


def test_assignment_defect_matches_game_value_oracle():
    import random
    rng = random.Random(20260810)
    cases = [("C:5", "K:3"), ("diamond", "K:3"), ("C:6", "K:2"), ("P:4", "C:5")]
    checked = 0
    while checked < 100:
        hs, gs = cases[checked % len(cases)]
        h, g = build_family(hs), build_family(gs)
        assignment = [rng.randrange(g.n) for _ in range(h.n)]
        s = classical_strategy(h, g, assignment)
        value = assignment_game_value(h, g, assignment)
        assert abs(assignment_defect(s) - (1.0 - value)) < 1e-12
        checked += 1


def test_commutator_defect_unitary_invariance():
    rng = np.random.default_rng(7)
    h, g = build_family("K:2"), build_family("K:2")
    base = {0: [P0, P1], 1: [Q0, Q1]}
    s = strategy_from_vertex_pvms(h, g, 2, base)
    reference = commutator_defect(s, 0, 1)
    for _ in range(5):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(z)
        rotated = {v: [u @ p @ u.conj().T for p in fam] for v, fam in base.items()}
        s2 = strategy_from_vertex_pvms(h, g, 2, rotated)
        assert abs(commutator_defect(s2, 0, 1) - reference) < 1e-8


def test_validate_strategy_catches_bad_pvm():
    h, g = build_family("K:2"), build_family("K:2")
    s = strategy_from_vertex_pvms(h, g, 2, {0: [P0, P0], 1: [Q0, Q1]})
    with pytest.raises(ValueError):
        validate_strategy(s)
    bad_dist = strategy_from_vertex_pvms(h, g, 2, {0: [P0, P1], 1: [Q0, Q1]},
                                         dist={(0, 1): Fraction(1, 3),
                                               (1, 0): Fraction(1, 3)})
    with pytest.raises(ValueError, match="sum"):
        validate_strategy(bad_dist)


def test_strategy_json_round_trip():
    import json as js
    h, g = build_family("K:2"), build_family("K:3")
    hom = enumerate_homomorphisms(h, g, limit=1)[0]
    s = classical_strategy(h, g, hom, with_edge_pvms=True)
    back = strategy_from_json(js.loads(js.dumps(s.to_json())))
    assert back.dim == s.dim
    assert back.dist == s.dist
    assert assignment_defect(back) == assignment_defect(s)
    assert cv_defect(back) == cv_defect(s)


def test_nan_strategy_fails_validation():
    # a NaN residual compares false against the tolerance; it must still fail
    h = build_family("K:2")
    nan = np.full((2, 2), np.nan, dtype=complex)
    s = strategy_from_vertex_pvms(h, h, 2, {0: [nan, Z2], 1: [Q0, Q1]})
    with pytest.raises(ValueError, match="vertex 0 PVM: element 0 is not hermitian"):
        assignment_defect(s)
    s = strategy_from_vertex_pvms(h, h, 2, {0: [P0, P1], 1: [Q0, Q1]})
    s.vertex_pvms[1, 1, 1, 1] = complex(1.0, np.nan)
    with pytest.raises(ValueError, match="vertex 1 PVM: element 1 is not hermitian"):
        validate_strategy(s)


@pytest.mark.parametrize("entry, check", [(1e300, "idempotent"), (np.inf, "hermitian"),
                                          (-np.inf, "hermitian")], ids=["1e300", "inf", "-inf"])
@pytest.mark.parametrize("edge", [False, True], ids=["vertex", "edge"])
def test_non_finite_strategy_fails_without_numpy_warnings(entry, check, edge):
    # a huge entry overflows in the products and an infinite one gives
    # inf - inf; either must reach the ValueError without a RuntimeWarning
    h = build_family("K:2")
    doc = classical_strategy(h, h, [0, 1], with_edge_pvms=True).to_json()
    if edge:
        doc["edge_pvms"]["0,1"]["0,1"][0][0][0] = entry
        what = r"edge \(0,1\) PVM: element 0"
    else:
        doc["vertex_pvms"]["0"][0][0][0][0] = entry
        what = "vertex 0 PVM: element 0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = strategy_from_json(doc)
        with pytest.raises(ValueError, match=f"^{what} is not {check}$"):
            validate_strategy(s, need_edge_pvms=True)


def test_commutator_vertices_must_be_instance_vertices():
    h = build_family("K:2")
    s = strategy_from_vertex_pvms(h, h, 2, {0: [P0, P1], 1: [Q0, Q1]})
    for x, y in ((99, 0), (0, 2), (-1, 0), (1, -1)):
        with pytest.raises(ValueError, match="is not an instance vertex"):
            commutator_defect(s, x, y)


@pytest.mark.parametrize("key", ["-1", "5", "2"])
def test_vertex_pvm_keys_must_be_instance_vertices(key):
    h = build_family("K:2")
    doc = classical_strategy(h, h, [0, 1]).to_json()
    doc["vertex_pvms"][key] = doc["vertex_pvms"].pop("1")
    with pytest.raises(ValueError, match=f"key {key} is not an instance vertex"):
        strategy_from_json(doc)
    with pytest.raises(ValueError, match=f"key {key} is not an instance vertex"):
        strategy_from_vertex_pvms(h, h, 2, {0: [P0, P1], int(key): [Q0, Q1]})


def test_strategy_families_must_be_complete():
    h, g = build_family("K:2"), build_family("K:3")
    with pytest.raises(ValueError, match="vertex 1 has no PVM"):
        strategy_from_vertex_pvms(h, g, 2, {0: [P0, P1, Z2]})
    with pytest.raises(ValueError, match="vertex 1 PVM has 2 outcomes, expected 3"):
        strategy_from_vertex_pvms(h, g, 2, {0: [P0, P1, Z2], 1: [Q0, Q1]})
    with pytest.raises(ValueError, match=r"matrix has shape \(1, 1\), expected \(2,2\)"):
        strategy_from_vertex_pvms(h, g, 2, {0: [P0, P1, Z2], 1: [Q0, Q1, np.zeros((1, 1))]})


@pytest.mark.parametrize("element", ["1.0", None, [1.0]])
def test_strategy_elements_must_be_numbers(element):
    h = build_family("K:2")
    doc = classical_strategy(h, h, [0, 1], with_edge_pvms=True).to_json()
    doc["vertex_pvms"]["1"][0][0][0][0] = element
    with pytest.raises(ValueError, match="malformed strategy document"):
        strategy_from_json(doc)
    doc = classical_strategy(h, h, [0, 1], with_edge_pvms=True).to_json()
    doc["edge_pvms"]["0,1"]["0,1"][0][0][1] = element
    with pytest.raises(ValueError, match="malformed strategy document"):
        strategy_from_json(doc)


def test_repeated_and_mixed_dist_weights_parse_as_before():
    h, g = build_family("C:6"), build_family("K:3")
    doc = classical_strategy(h, g, enumerate_homomorphisms(h, g, limit=1)[0]).to_json()
    # a JSON true is refused, not parsed as 1 (test_json_boolean_weights_are_refused)
    weights = ["1/24", "1/24", 0.0625, "0.03125", 0, "1/24", 0.0625, "2/48", 1, "1/24"]
    doc["dist"] = {key: weights[i % len(weights)] for i, key in enumerate(doc["dist"])}
    assert strategy_from_json(doc).dist == \
        {tuple(int(t) for t in key.split(",")): Fraction(val) for key, val in doc["dist"].items()}


@pytest.mark.parametrize("weight", [[1], "1/0"])
def test_bad_dist_weight_is_malformed(weight):
    h = build_family("K:2")
    doc = classical_strategy(h, h, [0, 1]).to_json()
    doc["dist"]["1,0"] = weight
    with pytest.raises(ValueError, match="malformed strategy document"):
        strategy_from_json(doc)


def test_json_family_names_the_matrix_of_the_wrong_shape():
    h = build_family("K:2")
    doc = classical_strategy(h, h, [0, 1]).to_json()
    doc["vertex_pvms"]["1"][1] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(ValueError, match=r"matrix has shape \(2, 2\), expected \(1,1\)"):
        strategy_from_json(doc)


def test_vertex_stack_bound_refused_before_allocation():
    h = build_family("K:2")
    doc = classical_strategy(h, h, [0, 1]).to_json()
    doc["dim"] = 2 ** 11  # 2 * 2 * 2^22 numbers, stated over 1x1 matrices
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=str(MAX_STACK_ENTRIES)):
            strategy_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_edge_pvm_checks_run_in_family_order():
    # of two broken families, the first in (x, y) order raises, wherever the
    # document lists it
    h, g = build_family("K:2"), build_family("K:3")
    doc = classical_strategy(h, g, [0, 1], with_edge_pvms=True).to_json()
    doc["edge_pvms"] = {"1,0": {"1,0": [[[2.0, 0.0]]]}, "0,1": {"0,1": [[[0.0, 1.0]]]}}
    with pytest.raises(ValueError, match=r"^edge \(0,1\) PVM: element 0 is not hermitian$"):
        cv_defect(strategy_from_json(doc))


def _p2_k3_doc():
    h, g = build_family("P:2"), build_family("K:3")
    return classical_strategy(h, g, [0, 1, 2], with_edge_pvms=True).to_json()


@pytest.mark.parametrize("edit, message", [
    (lambda fams: fams.update({"0,2": fams["0,1"]}),
     "edge_pvms key 0,2 is not a directed edge of the instance"),
    (lambda fams: fams["0,1"].update({"1,1": [[[0.0, 0.0]]]}),
     "edge_pvms key 0,1: outcome key 1,1 is not a directed edge of the target"),
    (lambda fams: fams.update({"0,1": {}}), "edge_pvms key 0,1 lists no outcome"),
], ids=["non-edge-key", "non-edge-outcome", "empty-family"])
def test_edge_families_no_stack_could_hold_are_refused_at_load(edit, message):
    doc = _p2_k3_doc()
    strategy_from_json(doc)
    edit(doc["edge_pvms"])
    with pytest.raises(ValueError) as info:
        strategy_from_json(doc)
    assert str(info.value) == message


def test_edge_stack_bound_refused_before_allocation():
    # K:17's 17 x 17 vertex matrices of dimension 8 fit the bound; its
    # 272 x 272 edge matrices do not, though the document lists one
    h, eye, zero = build_family("K:17"), np.eye(8), np.zeros((8, 8))
    doc = strategy_from_vertex_pvms(h, h, 8, {u: [eye if a == u else zero for a in range(h.n)]
                                              for u in range(h.n)}).to_json()
    doc["edge_pvms"] = {"0,1": {"0,1": doc["vertex_pvms"]["0"][0]}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"272 x 272 matrices of dimension 8 need "
                                             f"{272 * 272 * 64} matrix elements"):
            strategy_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cc_defect_refuses_a_weighted_pair_edge_without_pvm():
    # weight on (0,1) only, and no family for (1,2)
    doc = _p2_k3_doc()
    doc["dist"] = {"0,1": "1/1"}
    del doc["edge_pvms"]["1,2"]
    s = strategy_from_json(doc)
    assert cv_defect(s) == 0.0
    with pytest.raises(ValueError, match=r"^pair_dist edge \(1,2\) has weight but no PVM$"):
        cc_defect(s, {((0, 1), (1, 2)): Fraction(1)})
    assert cc_defect(s, {((0, 1), (1, 2)): Fraction(0), ((0, 1), (1, 0)): Fraction(1)}) == 0.0


@pytest.mark.parametrize("assignment", [[0], [0, 3], [0, -1]])
def test_classical_strategy_rejects_bad_assignment(assignment):
    # a negative value would otherwise index the stack from its end
    with pytest.raises(ValueError):
        classical_strategy(build_family("K:2"), build_family("K:3"), assignment)


def test_sparse_edge_pvms_on_a_large_target_stay_small():
    # edge families are stacked over all 4032 directed edges of K:64, but
    # only the listed outcomes are multiplied pairwise
    h, g = build_family("K:2"), build_family("K:64")
    s = classical_strategy(h, g, [0, 1], with_edge_pvms=True)
    tracemalloc.start()
    try:
        assert cv_defect(s) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _reference_weight_check(s):
    """The weight checks of validate_strategy, one Fraction added at a time:
    the reference for its numerator sum over the least common denominator."""
    edges = set(s.instance.directed_edges())
    total = Fraction(0)
    for (x, y), w in s.dist.items():
        if (x, y) not in edges:
            raise ValueError(f"dist key ({x},{y}) is not a directed edge of the instance")
        if w < 0:
            raise ValueError("dist weights must be nonnegative")
        total += w
    if total != 1:
        raise ValueError(f"dist weights sum to {total}, expected 1")


def _outcome(check, s):
    try:
        check(s)
    except ValueError as exc:
        return str(exc)
    return None


_WEIGHTS = st.builds(Fraction, st.integers(-3, 40), st.integers(1, 48))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_weight_check_matches_the_fraction_loop(data):
    h = build_family(data.draw(st.sampled_from(["K:2", "P:3", "C:5", "K:4"])))
    edges = h.directed_edges()
    keys = data.draw(st.lists(st.sampled_from([*edges, (0, 0)]), unique=True))
    if data.draw(st.booleans()):  # weights that may sum to 1
        parts = data.draw(st.lists(st.integers(0, 6), min_size=len(keys), max_size=len(keys)))
        weights = [Fraction(p, sum(parts)) for p in parts] if sum(parts) else parts
    else:
        weights = data.draw(st.lists(_WEIGHTS, min_size=len(keys), max_size=len(keys)))
    s = classical_strategy(h, build_family("K:2"), [0] * h.n, dict(zip(keys, weights)))
    assert _outcome(validate_strategy, s) == _outcome(_reference_weight_check, s)
