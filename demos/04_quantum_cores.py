#!/usr/bin/env python3
"""Certifying quantum cores by pure walk combinatorics.

A graph is a quantum core when every quantum endomorphism is a quantum
automorphism.  For odd cycles, odd graphs, and the Kneser family K(3n+2,n+1)
this follows from two walk conditions, checked per vertex pair: a walk length
joining the pair that no closed walk anywhere can match (column condition),
and, for non-adjacent pairs, a length that no adjacent pair can match (cross
condition).  The certificate holds one length per pair, in two integer
arrays; re-verification recomputes each distinct length's walks as a bool
power of the adjacency matrix, independent of the walk table that found them.
"""

from qgadget import (build_family, classical_only_report, girths,
                     quantum_core_certificate, verify_quantum_core_certificate)


def main():
    for spec in ("C:5", "C:7", "C:9", "O:2", "O:3", "O:4", "KG:8,3"):
        g = build_family(spec)
        cert = quantum_core_certificate(g, 2 * g.n + 2)
        print(f"=== {spec}: {g.n} vertices, odd girth {girths(g).odd_girth}")
        if cert is None:
            print("  no certificate within the bound")
            continue
        verify_quantum_core_certificate(g, cert)
        cols = sorted(set(cert.column_lengths.tolist()))
        crosses = sorted(set(cert.cross_lengths.tolist()))
        print(f"  certificate: column lengths {cols}, cross lengths {crosses} "
              f"(re-verified)")

    print()
    print("=== the classicality chain for C:7")
    report = classical_only_report(build_family("C:7"), assume_no_quantum_symmetry=True)
    print(f"  quantum core: {report.quantum_core_certified}; classical core: "
          f"{report.classical_core}; external symmetry input: "
          f"{report.no_quantum_symmetry_assumed}")
    print(f"  conclusion: {report.conclusion}")

    print()
    print("=== the chain breaks on the diamond")
    report = classical_only_report(build_family("diamond"), assume_no_quantum_symmetry=True)
    print(f"  conclusion: {report.conclusion}")


if __name__ == "__main__":
    main()
