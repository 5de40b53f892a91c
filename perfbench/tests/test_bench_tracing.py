"""Span arithmetic of the benchmark's layer tracing, on synthetic spans."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from tracing import JOB_METRICS, SPAN_METRICS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _tree():
    """run [0, 10] -> two steps [1, 4] and [5, 8]; each step -> two transports."""
    return [
        Span(0, None, "solver.run", 0.0, 10.0, 0),
        Span(1, 0, "solver.strang_step_energy", 1.0, 4.0, 0),
        Span(2, 1, "solver.transport_step", 1.0, 1.5, 100),
        Span(3, 1, "solver.transport_step", 3.0, 4.0, 100),
        Span(4, 0, "solver.strang_step_energy", 5.0, 8.0, 0),
        Span(5, 4, "solver.transport_step", 5.5, 6.0, 100),
        Span(6, 4, "solver.transport_step", 7.0, 7.5, 100),
        Span(7, 0, "scatter.funk_hecke_eigs", 0.25, 0.75, 0),
    ]


def test_self_time_subtracts_children():
    own = self_times(_tree())
    assert own[0] == pytest.approx(10.0 - 3.0 - 3.0 - 0.5)
    assert own[1] == pytest.approx(3.0 - 0.5 - 1.0)
    assert own[4] == pytest.approx(3.0 - 0.5 - 0.5)
    assert own[2] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, "a", 0.0, 10.0, 0),
        Span(1, 0, "b", 1.0, 5.0, 0),
        Span(2, 0, "c", 3.0, 7.0, 0),
        Span(3, 0, "d", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_from_tree():
    names = {"solver.run", "solver.strang_step_energy", "solver.transport_step",
             "scatter.funk_hecke_eigs", "experiments.strang_step_energy"}
    m = layer_metrics(_tree(), names)
    assert m["solver.transport_step.calls"] == 4
    assert m["solver.transport_step.s"] == pytest.approx(2.5)
    assert m["solver.transport_step.gbytes_per_s"] == pytest.approx(400 / 2.5 / 1e9)
    assert m["scatter.engine.s"] == pytest.approx(1.5 + 2.0)
    assert m["solver.run.self_s"] == pytest.approx(3.5)
    assert m["scatter.funk_hecke_eigs.calls"] == 1
    assert m["experiments.replay_steps"] == 0


def test_missing_binding_reads_absent():
    m = layer_metrics(_tree(), {"solver.run", "solver.strang_step_energy"})
    assert m["solver.transport_step.calls"] is None
    assert m["solver.transport_step.gbytes_per_s"] is None
    assert m["solver.run.self_s"] is not None


def test_uncounted_bytes_read_absent():
    spans = [s._replace(nbytes=None) if s.id == 2 else s for s in _tree()]
    m = layer_metrics(spans, {"solver.run", "solver.transport_step"})
    assert m["solver.transport_step.gbytes_per_s"] is None
    assert m["solver.transport_step.calls"] == 4


def test_install_wraps_existing_names_and_reports_missing():
    mod = type(sys)("fake_layer")
    mod.work = lambda x: x + 1
    sys.modules["fake_layer"] = mod
    try:
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        installed, missing = tracer.install(
            (("fake_layer", "work", "fake.work"), ("fake_layer", "gone", "fake.gone"))
        )
        assert mod.work(1) == 2
    finally:
        del sys.modules["fake_layer"]
    assert installed == {"fake.work"}
    assert missing == ["fake_layer.gone"]
    assert [(s.name, s.end - s.start) for s in tracer.spans] == [("fake.work", 1.0)]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    ours = {m[:3] for m in SPAN_METRICS} | set(JOB_METRICS)
    assert listed == ours
    assert {(w["name"], w["why"]) for w in spec["workloads"]} == {
        (w.name, w.why) for w in WORKLOADS.values()
    }
