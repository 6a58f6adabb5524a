import contextlib
import io

import pytest

import qgadget
import qgadget.cli
import tracer
from tracer import Span


def test_self_time_subtracts_children():
    spans = [Span("cli.main", 0.0, 10.0, -1, "a"),
             Span("endo.nogo_verdict", 1.0, 6.0, 0, "a"),
             Span("endo.find_schmidt_pair", 2.0, 3.0, 1, "a"),
             Span("endo.find_schmidt_pair", 3.5, 5.0, 1, "a"),
             Span("walks.girths", 7.0, 9.0, 0, "a")]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [Span("cli.main", 0.0, 10.0, -1, "a"),
             Span("walks.walk_table", 2.0, 6.0, 0, "a"),
             Span("walks.walk_table", 4.0, 8.0, 0, "a"),
             Span("walks.walk_table", 9.0, 12.0, 0, "a")]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_sum_self_times_per_layer_and_function():
    spans = [Span("cli.main", 0.0, 10.0, -1, "a"),
             Span("endo.enumerate_homomorphisms", 1.0, 4.0, 0, "a"),
             Span("endo.find_schmidt_pair", 5.0, 9.0, 0, "a")]
    m = tracer.layer_metrics(spans, ["endo.enumerate_homomorphisms", "qrep.verify_rep"])
    assert m["cli.calls"] == 1 and m["cli.self_s"] == pytest.approx(3.0)
    assert m["endo.calls"] == 2 and m["endo.self_s"] == pytest.approx(7.0)
    assert m["endo.enumerate_homomorphisms.self_s"] == pytest.approx(3.0)
    assert m["qrep.verify_rep.calls"] == 0
    assert sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS) == pytest.approx(10.0)


def _analyze(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qgadget.cli.main(argv) == 0
    return out.getvalue().split('"elapsed_seconds"')[0]


def test_install_traces_calls_made_by_name_and_uninstall_restores():
    original = qgadget.cli.nogo_verdict
    plain = _analyze(["analyze", "C:9", "--json"])
    t = tracer.Tracer()
    t.install()
    try:
        t.op = "analyze C:9"
        traced = _analyze(["analyze", "C:9", "--json"])
    finally:
        t.uninstall()
    assert traced == plain
    assert qgadget.cli.nogo_verdict is original
    names = [s.name for s in t.spans]
    assert names[0] == "cli.main" and t.spans[0].parent == -1
    assert {"endo.nogo_verdict", "endo.find_schmidt_pair", "walks.girths",
            "walks.walk_table"} <= set(names)
    assert "endo.support" not in names
    assert names.count("endo.enumerate_endomorphisms") == 2  # C:9 has no pair, so both modes scan
    assert all(s.op == "analyze C:9" for s in t.spans)
    own = tracer.self_times(t.spans)
    root = t.spans[0].end - t.spans[0].start
    assert sum(own) == pytest.approx(root)
