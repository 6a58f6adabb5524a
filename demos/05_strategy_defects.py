#!/usr/bin/env python3
"""Weighted-algebra defects of finite-dimensional strategies.

The defect of a strategy totals the squared trace norms of the relations it
violates, weighted by the question distribution.  Consistent classical
strategies sit at exactly zero; a deterministic strategy's assignment defect
equals one minus its game value; and the computational-vs-Hadamard pair of
measurements shows the commutator defect at work.
"""

import random

from qgadget import (assignment_defect, build_family, classical_strategy,
                     commutator_defect, cv_defect, enumerate_homomorphisms, projector,
                     strategy_from_vertex_pvms)
from qgadget.qrep import KET0, KET1, KETMINUS, KETPLUS


def main():
    h, g = build_family("C:6"), build_family("K:3")
    hom = tuple(enumerate_homomorphisms(h, g, limit=1)[0].tolist())
    s = classical_strategy(h, g, hom, with_edge_pvms=True)
    print(f"=== perfect classical strategy C:6 -> K:3 ({hom})")
    print(f"  assignment defect {assignment_defect(s)}, "
          f"constraint-variable defect {cv_defect(s)}")

    print()
    print("=== random deterministic strategies C:5 -> K:3")
    rng = random.Random(7)
    c5, k3 = build_family("C:5"), build_family("K:3")
    for _ in range(4):
        assignment = [rng.randrange(3) for _ in range(5)]
        d = assignment_defect(classical_strategy(c5, k3, assignment))
        print(f"  {assignment}: defect {d:.3f} = 1 - game value {1 - d:.3f}")

    print()
    print("=== commutator defect of computational vs Hadamard measurements")
    k2 = build_family("K:2")
    s2 = strategy_from_vertex_pvms(k2, k2, 2,
                                   {0: [projector(KET0), projector(KET1)],
                                    1: [projector(KETPLUS), projector(KETMINUS)]})
    print(f"  four outcome pairs, each contributing 1/4: "
          f"{commutator_defect(s2, 0, 1):.6f}")


if __name__ == "__main__":
    main()
