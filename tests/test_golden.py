"""The golden corpus: every report of a fixed battery keeps its bytes.

``tests/golden.json`` holds one sha256 per report, keyed by its argv joined
by spaces, with elapsed_seconds written as 0.  Every argv of ``BATTERY``
runs in-process, once with ``--json`` and once in text mode, in a directory
holding the input documents ``write_documents`` writes, so echoed paths are
relative.  A change that moves report bytes regenerates the corpus with
``PYTHONPATH=src python tests/regen_golden.py`` and names each digest that
moved and why.
"""

import json
from pathlib import Path

import pytest

from qgadget import (build_family, classical_rep, classical_strategy, enumerate_homomorphisms,
                     pair_swap_rep, strategy_from_vertex_pvms)
from conftest import golden_digests, inf_rep_json, report_sha256

BATTERY = [
    # no-go verdicts: no gadget at all, no non-oracular gadget (with the
    # known oracular one), a known gadget alone, unknown; infinite girths;
    # an edge-list file
    ["analyze", "diamond"],
    ["analyze", "K:4"],
    ["analyze", "K:3"],
    ["analyze", "C:5"],
    ["analyze", "P:4"],
    ["analyze", "@diamond.edges"],
    ["schmidt", "diamond"],
    ["schmidt", "C:6", "--oracular"],
    ["schmidt", "C:5"],
    # listings: full, limited, empty, pinned
    ["endos", "P:11"],
    ["endos", "C:12"],
    ["endos", "cmpl(C:10)"],
    ["endos", "diamond"],
    ["endos", "K:6", "--limit", "5"],
    ["endos", "K:3", "--limit", "0"],
    ["homs", "cmpl(C:8)", "K:4"],
    ["homs", "C:9", "K:3", "--pin", "0=1", "--limit", "3"],
    ["homs", "C:5", "K:2"],
    ["homs", "K:3", "K:3", "--i-know"],
    # property-(i) tables: complete, incomplete, refuted by a walk obstruction
    ["gadget-check", "cmpl(C:6)", "0", "1", "K:3"],
    ["gadget-check", "O:4", "0", "1", "C:7"],
    ["gadget-check", "C:6", "0", "3", "K:2"],
    ["gadget-build", "complement-cycle", "4"],
    ["splice", "K:3", "cmpl(C:6)", "0", "1", "K:3", "--pairs", "0,1;1,2"],
    ["product-transfer", "cmpl(C:8)", "0", "1", "K:4", "K:4"],
    ["product-transfer", "cmpl(C:6)", "0", "1", "K:3", "K:3",
     "--status1", "proven_oracular", "--status2", "proven_oracular"],
    # refuted prisms: every pair by distance, and with noncommuting witnesses
    ["disprove-prism", "2", "1"],
    ["disprove-prism", "3", "2"],
    ["disprove-prism", "2", "4"],
    ["disprove-prism", "5", "16"],
    # quantum cores: certified, certified without a classical-core check,
    # inconclusive with and without a Schmidt pair, the assumption both ways
    ["qcore", "C:5"],
    ["qcore", "C:5", "--assume-no-quantum-symmetry"],
    ["qcore", "C:5", "--lmax", "1"],
    ["qcore", "C:6"],
    ["qcore", "O:4"],
    ["qcore", "K:1"],
    ["qcore", "C:51"],
    ["qcore", "O:3"],
    ["qcore", "O:5"],
    ["qcore", "KG:8,3"],
    ["qcore", "box(C:9,P:10)"],
    # representations: passing, failing, plain and oracular, non-finite
    ["rep-verify", "swap.json"],
    ["rep-verify", "swap.json", "--oracular"],
    ["rep-verify", "classical.json", "--oracular"],
    ["rep-verify", "broken.json"],
    ["rep-verify", "inf.json"],
    ["rep-compose", "swap.json", "classical.json"],
    ["rep-compose", "swap.json", "swap.json", "-o", "composed.json"],
    # each defect model, zero and nonzero
    ["defect", "strategy.json", "--model", "a"],
    ["defect", "strategy.json", "--model", "c-v"],
    ["defect", "strategy.json", "--model", "c-c", "--pair-dist", "pairs.json"],
    ["defect", "strategy.json", "--model", "commutator", "--x", "0", "--y", "1"],
    ["defect", "quantum.json", "--model", "a"],
    ["defect", "quantum.json", "--model", "commutator", "--x", "0", "--y", "2"],
    ["defect", "misfit.json", "--model", "a"],
    ["bipartite-decide", "C:6", "K:2"],
    ["bipartite-decide", "C:5", "K:2"],
    ["bipartite-decide", "C:7", "cmpl(K:3)"],
]

# every report of the battery, text mode first
ARGVS = [argv + mode for argv in BATTERY for mode in ([], ["--json"])]


def write_documents(directory: Path) -> None:
    """Write the input documents the battery reads into ``directory``."""
    def put(name, doc):
        (directory / name).write_text(doc if isinstance(doc, str) else json.dumps(doc),
                                      encoding="utf-8")

    k4 = build_family("K:4")
    swap = pair_swap_rep(4)
    put("diamond.edges", "4 5\n0 1\n1 2\n2 3\n3 0\n1 3\n")
    put("swap.json", swap.to_json())
    put("classical.json", classical_rep(k4, k4, [1, 0, 3, 2]).to_json())
    broken = swap.to_json()
    del broken["mats"]["0,0"]  # breaks a row sum
    put("broken.json", broken)
    put("inf.json", inf_rep_json())
    c6, k3 = build_family("C:6"), build_family("K:3")
    hom = enumerate_homomorphisms(c6, k3, limit=1)[0]
    put("strategy.json", classical_strategy(c6, k3, hom, with_edge_pvms=True).to_json())
    put("pairs.json", {"0,1|1,2": "1/2", "1,2|0,1": "1/2"})
    pvms = {x: [swap.mats[x, a] for a in range(4)] for x in range(4)}
    put("quantum.json", strategy_from_vertex_pvms(k4, k4, 2, pvms).to_json())
    put("misfit.json", classical_strategy(k3, k3, [0, 0, 1]).to_json())


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("golden")
    write_documents(directory)
    return directory


def test_corpus_holds_each_battery_report_once():
    assert len(set(map(" ".join, ARGVS))) == len(ARGVS)
    assert sorted(golden_digests()) == sorted(map(" ".join, ARGVS))


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_report_keeps_its_bytes(documents, monkeypatch, argv):
    monkeypatch.chdir(documents)
    assert report_sha256(argv) == golden_digests()[" ".join(argv)]
