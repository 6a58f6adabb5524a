#!/usr/bin/env python3
"""The k-colouring dichotomy, seen computationally.

For k >= 4 the complete graph K_k carries a 2-dimensional endomorphism
representation that measures two colours in the computational basis and two
in the Hadamard basis; its noncommuting entries rule out a (non-oracular)
commutativity gadget.  Yet the complement of the 2k-cycle, with the first two
vertices distinguished, works as an oracular gadget: every colour pair is
realised by a classical homomorphism (found by pinned search when the gadget
is built, and re-checked), and no walk obstruction exists.  The gadget also
transfers to categorical powers.
"""

from qgadget import (build_family, commutator_norm, complement_cycle_gadget, nogo_verdict,
                     pair_swap_rep, product_transfer, verify_rep, walk_obstruction)


def main():
    for k in (4, 5, 6):
        print(f"=== {k}-colouring")
        verdict = nogo_verdict(build_family(f"K:{k}"))
        cert = verdict.certificate
        print(f"  verdict {verdict.kind}: pair f={cert.f.mapping} g={cert.g.mapping}")

        rep = pair_swap_rep(k)
        print(f"  pair-swap representation verifies: {verify_rep(rep).passed}; "
              f"oracular check fails: {not verify_rep(rep, oracular=True).passed}; "
              f"[p00,p22] norm {commutator_norm(rep, (0, 0), (2, 2)):.3f}")

        gadget, table = complement_cycle_gadget(k)
        print(f"  oracular gadget {gadget.gadget.label}: pin table "
              f"{len(table.witnesses)}/{k * k} complete={table.complete}, "
              f"walk obstruction: {walk_obstruction(gadget)}")
        print()

    print("=== transfer to a categorical power")
    g3, _ = complement_cycle_gadget(3)
    squared, table = product_transfer(g3, g3)
    print(f"  {g3.gadget.label} works for {squared.target.label}: "
          f"table {len(table.witnesses)} entries, complete={table.complete}, "
          f"status={squared.status}")


if __name__ == "__main__":
    main()
