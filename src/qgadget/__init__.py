"""Desk-scale decision tools for quantum symmetries of graph CSPs.

The package answers concrete questions about a finite graph G:

* does G carry a Schmidt pair -- two non-identity endomorphisms with disjoint
  (or disconnected) supports that are weakly adjacency congruent -- and hence
  a non-classical quantum endomorphism ruling out commutativity gadgets?
* do explicit finite-dimensional quantum homomorphisms verify, compose, and
  exhibit their designated noncommuting witnesses?
* can a gadget candidate be refuted by walk obstructions, or supported by a
  complete classically-witnessed pin table?
* is G certifiably a quantum core, via purely combinatorial walk conditions?
* what are the weighted-algebra defects of a finite-dimensional strategy?

Everything is exact-combinatorics plus dense numpy linear algebra; every
negative or positive verdict carries a re-verifiable witness.
"""

__version__ = "0.1.0"

from .graphs import (Graph, MAX_VERTICES, adjacency_equal, box_product, build_family,
                     categorical_product, complement, complete_graph, cycle_graph,
                     diamond_graph, dprime_graph, graph_from_edges,
                     graph_from_json, kneser_graph, odd_graph, parse_graph, path_graph,
                     serialize_graph)
from .walks import (GirthReport, WalkTable, decide_bipartite_target, distance, girths,
                    is_bipartite, is_oracularisable, walk_table)
from .endo import (Endomorphism, SchmidtCertificate, Verdict, endomorphism_rows,
                   enumerate_homomorphisms, find_schmidt_pair, is_core, is_wac,
                   nogo_verdict, support, supports_disconnected, supports_disjoint,
                   verify_schmidt_certificate)
from .qrep import (QuantumRep, VerificationFailure, VerificationReport, classical_rep,
                   commutator_norm, commutator_norms, compose_reps, four_cycle_rep,
                   lift_box_rep, pair_swap_rep, path_shift_pair, path_to_cycle_rep, projector,
                   rep_from_json, schmidt_rep, schmidt_witness, verify_rep)
from .defect import (Strategy, assignment_defect, cc_defect, classical_strategy,
                     commutator_defect, cv_defect, pair_dist_from_json, strategy_from_json,
                     strategy_from_vertex_pvms, uniform_edge_dist, validate_strategy)
from .gadget import (CandidateClass, DisproofReport, GadgetCandidate, PropertyITable,
                     WalkObstruction, check_property_i_classical, complement_cycle_gadget,
                     disprove_box_path_gadget, enumerate_candidate_classes,
                     product_transfer, splice_gadget, walk_obstruction)
from .qcore import (ClassicalOnlyReport, QuantumCoreCertificate, classical_only_report,
                    quantum_core_certificate, verify_quantum_core_certificate)
