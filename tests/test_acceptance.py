"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with `pytest -s` or in the
failure report), so the suite doubles as a checklist.  Tolerances are pinned
here, not configured elsewhere.
"""

import json
import random
import time
from contextlib import contextmanager

import numpy as np

from qgadget import (Endomorphism, build_family, classical_rep, classical_strategy,
                     commutator_defect, commutator_norm, compose_reps,
                     decide_bipartite_target, endomorphism_rows,
                     enumerate_homomorphisms, find_schmidt_pair, four_cycle_rep, girths,
                     is_bipartite, is_oracularisable, lift_box_rep, pair_swap_rep,
                     path_to_cycle_rep, projector, quantum_core_certificate, schmidt_rep,
                     schmidt_witness, strategy_from_vertex_pvms, assignment_defect,
                     verify_quantum_core_certificate, verify_rep,
                     verify_schmidt_certificate, walk_table)
from qgadget.qrep import KET0, KET1, KETMINUS, KETPLUS
from qgadget.cli import main as cli_main
from conftest import assignment_game_value, tuples


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:2d}] PASS  {desc}")


def run_cli_json(capsys, *argv):
    code = cli_main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0, f"command {argv} exited {code}"
    return json.loads(out)


def test_criterion_1_schmidt_nogo_reproduction(capsys):
    with criterion(1, "Schmidt no-go for the diamond and the chorded 6-cycle"):
        for spec in ("diamond", "dprime"):
            report = run_cli_json(capsys, "analyze", spec)
            verdict = report["result"]["verdict"]
            assert verdict["kind"] == "no_gadget_at_all", spec
            cert = verdict["certificate"]
            assert cert["mode"] == "disconnected"
            # re-verify the embedded witness from scratch
            g = build_family(spec)
            from qgadget.endo import SchmidtCertificate
            rebuilt = SchmidtCertificate(Endomorphism(g, tuple(cert["f"])),
                                         Endomorphism(g, tuple(cert["g"])),
                                         cert["mode"], tuple(cert["witness_vertices"]))
            verify_schmidt_certificate(rebuilt)
        # the named endomorphism pair of the chorded 6-cycle is enumerated
        maps = set(tuples(endomorphism_rows(build_family("dprime"))))
        assert (0, 1, 2, 3, 2, 1) in maps
        assert (0, 5, 4, 3, 4, 5) in maps


def test_criterion_2_complete_graph_dichotomy(capsys):
    with criterion(2, "complete-graph dichotomy: no-go for k>=4, gadget tables, k=3 clean"):
        for k in (4, 5, 6):
            report = run_cli_json(capsys, "analyze", f"K:{k}")
            verdict = report["result"]["verdict"]
            assert verdict["kind"] == "no_nonoracular_gadget", k
            assert verdict["certificate"]["mode"] == "disjoint_wac"
            built = run_cli_json(capsys, "gadget-build", "complement-cycle", str(k))
            table = built["result"]["property_i"]
            assert table["complete"]
            assert len(table["entries"]) == k * k
            assert all(w is not None for w in table["entries"].values())
        assert find_schmidt_pair(build_family("K:3"), oracular=False) is None
        assert find_schmidt_pair(build_family("K:3"), oracular=True) is None


def test_criterion_3_representation_suite():
    with criterion(3, "explicit representations verify; witnesses at norm 1/2"):
        residual_tol = 1e-9
        norm_tol = 1e-6

        reps = []
        r = pair_swap_rep(4)
        reps.append(("pair_swap(4)", r, False, ((0, 0), (2, 2))))
        fc = four_cycle_rep(build_family("K:4"), (0, 1, 2, 3))
        reps.append(("four_cycle(K4)", fc, False, ((0, 0), (1, 1))))
        d = build_family("diamond")
        fd, gd = Endomorphism(d, (0, 1, 0, 3)), Endomorphism(d, (2, 1, 2, 3))
        reps.append(("schmidt(diamond)", schmidt_rep(d, fd, gd), True, schmidt_witness(fd, gd)))
        dp = build_family("dprime")
        fp, gp = Endomorphism(dp, (0, 1, 2, 3, 2, 1)), Endomorphism(dp, (0, 5, 4, 3, 4, 5))
        reps.append(("schmidt(dprime)", schmidt_rep(dp, fp, gp), True, schmidt_witness(fp, gp)))

        for name, rep, oracular, witness in reps:
            report = verify_rep(rep, oracular=oracular)
            assert report.passed and report.max_residual < residual_tol, name
            assert abs(commutator_norm(rep, *witness) - 0.5) < norm_tol, name

        # the lift of every witness pair's own (s0, t0), rebuilt and checked: the
        # pipeline refutes the pair with a shared split lift, and this one does too
        from qgadget import disprove_box_path_gadget
        for k in (3, 4):
            report = disprove_box_path_gadget(2, k)
            for cls in report.classes:
                if cls.refutation.kind != "noncommuting_witness":
                    continue
                s0, t0 = cls.refutation.detail["s0"], cls.refutation.detail["t0"]
                lifted = lift_box_rep(path_to_cycle_rep(k, s0, t0, 2), 5)
                check = verify_rep(lifted)
                assert check.passed and check.max_residual < residual_tol, (k, s0, t0)
                u, v = (tuple(p) for p in cls.refutation.detail["witness"])
                assert abs(commutator_norm(lifted, u, v) - 0.5) < norm_tol, (k, s0, t0)


def test_criterion_4_box_path_disproof(capsys):
    with criterion(4, "box-path prism extension refuted for the 5-cycle (k=3,4)"):
        start = time.monotonic()
        for k in (3, 4):
            report = run_cli_json(capsys, "disprove-prism", "2", str(k))
            payload = report["result"]["report"]
            assert payload["all_refuted"]
            n_vertices = 5 * (k + 1)
            assert payload["total_pairs"] == n_vertices * (n_vertices - 1) // 2
            assert sum(c["members"] for c in payload["classes"]) == payload["total_pairs"]
            for cls in payload["classes"]:
                ref = cls["refutation"]
                if ref["kind"] == "distance":
                    assert ref["distance"] < 4 and ref["required"] == 4
                else:
                    assert ref["kind"] == "noncommuting_witness"
                    assert ref["commutator_norm"] > 0
                    assert ref["rep_verified"] is True
        assert time.monotonic() - start < 300


def test_criterion_5_quantum_core_certificates():
    with criterion(5, "quantum-core certificates for odd cycles, odd graphs, KG(8,3)"):
        parity_specs = ["C:5", "C:7", "C:9", "O:2", "O:3", "O:4"]
        for spec in parity_specs + ["KG:8,3"]:
            g = build_family(spec)
            cert = quantum_core_certificate(g, 2 * g.n + 2)
            assert cert is not None, spec
            verify_quantum_core_certificate(g, cert)
            n_pairs = g.n * (g.n - 1) // 2
            assert cert.column_lengths.shape == (n_pairs,)
            assert cert.cross_lengths.shape == (n_pairs - g.num_edges,)
            if spec in parity_specs:
                og = girths(g).odd_girth
                for ell in cert.column_lengths.tolist():
                    assert ell % 2 == 1 and ell < og, spec
                for ell in cert.cross_lengths.tolist():
                    assert ell % 2 == 0 and ell < og - 1, spec


def test_criterion_6_oracularisability():
    with criterion(6, "oracularisability: odd cycles and odd graphs yes, 4-cycles no"):
        for n in range(1, 6):
            ok, _ = is_oracularisable(build_family(f"C:{2 * n + 1}"))
            assert ok, n
        for n in (2, 3, 4):
            ok, _ = is_oracularisable(build_family(f"O:{n}"))
            assert ok, n
        for spec in ("K:4", "C:4", "cmpl(C:8)", "box(C:4,P:1)"):
            g = build_family(spec)
            ok, witness = is_oracularisable(g)
            assert not ok, spec
            a, b, c, d, a2 = witness
            assert a == a2 and len({a, b, c, d}) == 4
            for u, v in ((a, b), (b, c), (c, d), (d, a)):
                assert g.has_edge(u, v), spec


def test_criterion_7_walk_laws(small_family_graphs):
    with criterion(7, "Kneser thresholds, odd-graph walk bounds, odd girth = odd walk girth"):
        # Kneser threshold laws over all 2k < n <= 9
        for n in range(3, 10):
            for k in range(1, (n - 1) // 2 + 1):
                g = build_family(f"KG:{n},{k}")
                t = walk_table(g, 3)
                no_triangle = girths(g).girth > 3
                assert no_triangle == (n < 3 * k), (n, k)
                all_pairs_3 = all(t.has_walk(3, u, v)
                                  for u in range(g.n) for v in range(u + 1, g.n))
                assert all_pairs_3 == (n >= 3 * k - 1), (n, k)
                nonadj_pairs_2 = all(t.has_walk(2, u, v)
                                     for u in range(g.n) for v in range(u + 1, g.n)
                                     if not g.has_edge(u, v))
                assert nonadj_pairs_2 == (n >= 3 * k - 1), (n, k)
        # odd-graph walk bounds
        for n in (2, 3, 4):
            g = build_family(f"O:{n}")
            t = walk_table(g, 2 * n)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert any(t.has_walk(ell, u, v) for ell in range(1, 2 * n - 1, 2)), (n, u, v)
                    if not g.has_edge(u, v):
                        assert any(t.has_walk(ell, u, v)
                                   for ell in range(2, 2 * n - 2, 2)), (n, u, v)
        # odd walk girth equals odd girth on the whole battery
        for g in small_family_graphs:
            r = girths(g)
            assert r.odd_walk_girth == r.odd_girth, g.label


def test_criterion_8_bipartite_decision():
    with criterion(8, "bipartite-target decision agrees with search on 500+ pairs"):
        instances = ["K:1", "K:2", "K:3", "K:4", "C:3", "C:4", "C:5", "C:6", "C:7", "C:8",
                     "P:0", "P:1", "P:2", "P:3", "P:4", "diamond", "dprime", "cmpl(K:2)",
                     "cmpl(K:3)", "cmpl(C:6)", "tensor(K:2,K:2)", "tensor(K:2,K:3)",
                     "box(P:1,P:2)", "KG:4,2", "box(C:3,P:1)"]
        targets = ["K:1", "K:2", "C:4", "C:6", "C:8", "P:0", "P:1", "P:2", "P:3", "P:4",
                   "cmpl(K:2)", "cmpl(K:3)", "cmpl(K:4)", "tensor(K:2,K:2)",
                   "box(P:1,P:2)", "box(P:1,P:3)", "box(C:4,P:1)", "tensor(K:2,C:4)",
                   "P:5", "cmpl(K:8)"]
        pairs = 0
        for hs in instances:
            h = build_family(hs)
            assert h.n <= 8
            for gs in targets:
                g = build_family(gs)
                assert g.n <= 8 and is_bipartite(g)[0]
                expected = len(enumerate_homomorphisms(h, g, limit=1)) > 0
                assert decide_bipartite_target(h, g) == expected, (hs, gs)
                pairs += 1
        assert pairs >= 500


def test_criterion_9_defect_sanity():
    with criterion(9, "defect calculus: exact zeros, Hadamard value, game-value oracle"):
        # zero exactly on consistent classical strategies, instances <= 5 vertices
        cases = [("K:2", "K:3"), ("K:3", "K:3"), ("C:4", "K:2"), ("C:5", "K:3"),
                 ("P:2", "C:4"), ("P:3", "K:2"), ("C:4", "C:4"), ("P:4", "C:6")]
        for hs, gs in cases:
            h, g = build_family(hs), build_family(gs)
            assert h.n <= 5
            homs = set(tuples(enumerate_homomorphisms(h, g)))
            for hom in sorted(homs):
                assert assignment_defect(classical_strategy(h, g, hom)) == 0.0
            rng = random.Random(hash((hs, gs)) & 0xFFFF)
            misses = 0
            while misses < 5:
                mp = tuple(rng.randrange(g.n) for _ in range(h.n))
                if mp not in homs:
                    assert assignment_defect(classical_strategy(h, g, mp)) > 0.0
                    misses += 1
        # computational/Hadamard commutator defect
        h2, g2 = build_family("K:2"), build_family("K:2")
        s = strategy_from_vertex_pvms(h2, g2, 2,
                                      {0: [projector(KET0), projector(KET1)],
                                       1: [projector(KETPLUS), projector(KETMINUS)]})
        assert abs(commutator_defect(s, 0, 1) - 1.0) < 1e-9
        # 100 random deterministic strategies against the predicate-counting oracle
        rng = random.Random(20260810)
        specs = [("C:5", "K:3"), ("diamond", "K:3"), ("C:6", "K:2"), ("P:4", "C:5"),
                 ("dprime", "K:4")]
        for i in range(100):
            hs, gs = specs[i % len(specs)]
            h, g = build_family(hs), build_family(gs)
            assignment = [rng.randrange(g.n) for _ in range(h.n)]
            value = assignment_game_value(h, g, assignment)
            defect = assignment_defect(classical_strategy(h, g, assignment))
            assert abs(defect - (1.0 - value)) < 1e-12


def _composable_rep_pool():
    """Deterministic pool of verified representations keyed by endpoints."""
    d = build_family("diamond")
    dp = build_family("dprime")
    k2, k3, k4, k5 = (build_family(f"K:{i}") for i in (2, 3, 4, 5))
    c5, p4 = build_family("C:5"), build_family("P:4")
    pool = []
    fd, gd = Endomorphism(d, (0, 1, 0, 3)), Endomorphism(d, (2, 1, 2, 3))
    pool.append(schmidt_rep(d, fd, gd))
    fp, gp = Endomorphism(dp, (0, 1, 2, 3, 2, 1)), Endomorphism(dp, (0, 5, 4, 3, 4, 5))
    pool.append(schmidt_rep(dp, fp, gp))
    pool.append(pair_swap_rep(4))
    pool.append(four_cycle_rep(k4, (0, 1, 2, 3)))
    pool.append(path_to_cycle_rep(4, 0, 3, 2))
    rng = random.Random(99)
    hom_pairs = [(d, k3), (d, k4), (dp, k4), (k3, k3), (k3, k4), (k4, k4), (k4, k5),
                 (k2, k3), (k2, k4), (c5, c5), (c5, k3), (p4, c5), (k5, k5), (k3, k5),
                 (p4, p4), (k2, k2), (d, d), (dp, dp)]
    for h, g in hom_pairs:
        homs = tuples(enumerate_homomorphisms(h, g))
        if homs:
            for _ in range(2):
                pool.append(classical_rep(h, g, rng.choice(homs)))
    return pool


def test_criterion_10_cocomposition_laws():
    with criterion(10, "composition associativity and counit laws over 50 triples"):
        pool = _composable_rep_pool()
        for rep in pool:
            assert verify_rep(rep).passed
        by_domain = {}
        for rep in pool:
            by_domain.setdefault(rep.domain.label, []).append(rep)
        rng = random.Random(20260810)
        triples = []
        attempts = 0
        while len(triples) < 50 and attempts < 20000:
            attempts += 1
            r1 = rng.choice(pool)
            seconds = by_domain.get(r1.codomain.label, [])
            if not seconds:
                continue
            r2 = rng.choice(seconds)
            thirds = by_domain.get(r2.codomain.label, [])
            if not thirds:
                continue
            r3 = rng.choice(thirds)
            if r1.dim * r2.dim * r3.dim > 16:
                continue
            triples.append((r1, r2, r3))
        assert len(triples) == 50
        for r1, r2, r3 in triples:
            left = compose_reps(compose_reps(r1, r2), r3)
            right = compose_reps(r1, compose_reps(r2, r3))
            assert np.array_equal(left.present, right.present)
            assert np.max(np.abs(left.mats - right.mats)) < 1e-9
            assert verify_rep(left).passed
        # counit laws against the classical identity representations
        for rep in pool:
            id_dom = classical_rep(rep.domain, rep.domain, range(rep.domain.n))
            id_cod = classical_rep(rep.codomain, rep.codomain, range(rep.codomain.n))
            left = compose_reps(id_dom, rep)
            right = compose_reps(rep, id_cod)
            for out in (left, right):
                assert np.array_equal(out.present, rep.present)
                assert np.max(np.abs(out.mats - rep.mats)) < 1e-9


def test_criterion_11_determinism(capsys):
    with criterion(11, "byte-identical reports modulo timing"):
        commands = [
            ("analyze", "diamond"), ("analyze", "dprime"), ("analyze", "K:4"),
            ("analyze", "K:5"), ("analyze", "C:5"),
            ("schmidt", "dprime", "--oracular"),
            ("gadget-build", "complement-cycle", "4"),
            ("disprove-prism", "2", "3"),
            ("qcore", "C:7", "--assume-no-quantum-symmetry"),
            ("qcore", "KG:8,3"),
            ("bipartite-decide", "C:5", "K:2"),
            ("homs", "cmpl(C:6)", "K:3", "--pin", "0=0", "--pin", "1=1"),
        ]
        for argv in commands:
            seen = []
            for _ in range(2):
                payload = run_cli_json(capsys, *argv)
                payload.pop("elapsed_seconds")
                seen.append(json.dumps(payload, sort_keys=True))
            assert seen[0] == seen[1], argv
