#!/usr/bin/env python3
"""Oracularisability and the easy bipartite case.

A graph is oracularisable -- the plain and oracular morphism spaces into it
coincide -- exactly when it has no 4-cycle.  The negative direction is an
explicit dimension-4 representation built on a 4-cycle whose two rows refuse
to commute.  Separately, deciding morphism existence into a bipartite target
reduces to a parity check, verified here against plain search.
"""

from qgadget import (build_family, commutator_norm, decide_bipartite_target,
                     enumerate_homomorphisms, four_cycle_rep, is_oracularisable,
                     verify_rep)


def main():
    print("=== 4-cycle test")
    for spec in ("C:5", "C:7", "O:3", "K:4", "C:4", "cmpl(C:8)", "box(C:4,P:1)"):
        g = build_family(spec)
        ok, witness = is_oracularisable(g)
        tail = "" if ok else f"  witness cycle {witness}"
        print(f"  {spec:14s} oracularisable: {ok}{tail}")

    print()
    print("=== the dimension-4 witness on K:4")
    g = build_family("K:4")
    rep = four_cycle_rep(g, (0, 1, 2, 3))
    print(f"  relations verify: {verify_rep(rep).passed}; "
          f"rows at the domain edge do not commute: "
          f"norm {commutator_norm(rep, (0, 0), (1, 1)):.3f}")

    print()
    print("=== bipartite targets decided by parity")
    for hs, gs in (("C:5", "K:2"), ("C:6", "K:2"), ("K:3", "cmpl(K:2)"),
                   ("diamond", "C:4"), ("P:4", "C:6")):
        h, g2 = build_family(hs), build_family(gs)
        fast = decide_bipartite_target(h, g2)
        slow = len(enumerate_homomorphisms(h, g2, limit=1)) > 0
        print(f"  {hs:8s} -> {gs:10s} parity says {fast}, search says {slow}")


if __name__ == "__main__":
    main()
