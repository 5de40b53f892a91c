"""`tools/bench_pairs.py`: what it records of one CLI job, how far two
sides' output directories are apart, whether a traced run's last line is a
result the benchmark can read, and the counts and slowest tests of a
tier-1 run."""

import importlib.util
import json
import math
import os
import struct

import numpy as np
import pytest

from prte.solver import SNAPSHOT_HEADER_BYTES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_outputs(path, l2, residual, payload, note="ok"):
    """A tiny output directory: a diagnostics CSV, one snapshot, a text file."""
    os.makedirs(path)
    with open(os.path.join(path, "diagnostics.csv"), "w") as fh:
        fh.write("time,l2,energy_residual,label\n")
        for t, (a, r) in enumerate(zip(l2, residual)):
            fh.write(f"{t!r},{a!r},{r!r},row{t}\n")
    with open(os.path.join(path, "snapshot_0000.bin"), "wb") as fh:
        fh.write(b"PRTE" + struct.pack("<IIIId", 1, 2, 2, 1, 0.5))
        fh.write(np.asarray(payload, "<f8").tobytes())
    with open(os.path.join(path, "report.txt"), "w") as fh:
        fh.write(note + "\n")
    return path


def test_header_size_matches_the_solver(bench_pairs):
    assert bench_pairs.SNAPSHOT_HEADER_BYTES == SNAPSHOT_HEADER_BYTES


def test_job_usage_records_cpu_seconds(bench_pairs, tmp_path):
    """One set-up job of a workload on this checkout: its page faults, peak
    RSS and CPU seconds are positive, and it wrote its outputs."""
    out = str(tmp_path / "out")
    usage = bench_pairs.job_usage(ROOT, bench_pairs.WORKLOADS["solve-d2-beam"], 0, 1, out)
    assert set(usage) == {"minflt", "peak_rss_mb", "cpu_s"}
    assert usage["minflt"] > 0 and usage["peak_rss_mb"] > 0.0
    assert 0.0 < usage["cpu_s"] < 60.0
    assert "diagnostics.csv" in os.listdir(out)


def test_identical_outputs_have_no_deviation(bench_pairs, tmp_path):
    args = ([1.0, 0.5], [0.0, 1e-15], [1.0, 2.0, 3.0, 4.0])
    base = write_outputs(str(tmp_path / "base"), *args)
    head = write_outputs(str(tmp_path / "head"), *args, note="text is not read")
    assert bench_pairs.output_deviation(base, head) == {"max": 0.0, "at": None, "parts": {}}


def test_deviation_per_column_and_payload(bench_pairs, tmp_path):
    base = write_outputs(
        str(tmp_path / "base"), [1.0, 0.5], [0.0, 1e-15], [1.0, -4.0, 3.0, 2.0]
    )
    head = write_outputs(
        str(tmp_path / "head"), [1.0, 0.5 + 2e-16], [0.0, 3e-15], [1.0, -4.0, 3.0 + 4e-15, 2.0]
    )
    dev = bench_pairs.output_deviation(base, head)
    parts = dev["parts"]
    assert set(parts) == {
        "diagnostics.csv:l2", "diagnostics.csv:energy_residual", "snapshot_0000.bin"
    }
    assert parts["diagnostics.csv:l2"] == pytest.approx((0.5 + 2e-16 - 0.5) / 1.0)
    # a column of roundoff moves by about its own size
    assert parts["diagnostics.csv:energy_residual"] == pytest.approx(2.0)
    assert parts["snapshot_0000.bin"] == pytest.approx((3.0 + 4e-15 - 3.0) / 4.0)
    assert dev["at"] == "diagnostics.csv:energy_residual"
    assert dev["max"] == parts["diagnostics.csv:energy_residual"]


def test_residual_deviation_is_scaled_by_its_row(bench_pairs, tmp_path):
    """energy_residual against 1/2 l2^2 of its own row, not against the
    column's own largest magnitude."""
    base = write_outputs(str(tmp_path / "base"), [1.0, 0.5], [0.0, 1e-15], [1.0, 2.0])
    same = write_outputs(str(tmp_path / "same"), [1.0, 0.5], [0.0, 1e-15], [1.0, 2.0])
    head = write_outputs(str(tmp_path / "head"), [1.0, 0.5], [-4e-16, 3e-15], [1.0, 2.0])
    dev = bench_pairs.residual_deviation(base, head)
    assert dev["at"] == "diagnostics.csv"
    assert dev["max"] == pytest.approx(max(4e-16 / 0.5, 2e-15 / 0.125))
    assert bench_pairs.residual_deviation(base, same) == {"max": 0.0, "at": "diagnostics.csv"}
    short = write_outputs(str(tmp_path / "short"), [1.0], [0.0], [1.0, 2.0])
    assert bench_pairs.residual_deviation(base, short)["max"] == math.inf
    os.remove(os.path.join(head, "diagnostics.csv"))
    assert bench_pairs.residual_deviation(base, head) is None


def test_structural_differences_are_infinite(bench_pairs, tmp_path):
    base = write_outputs(str(tmp_path / "base"), [1.0, 0.5], [0.0, 0.0], [1.0, 2.0])
    head = write_outputs(str(tmp_path / "head"), [1.0, math.nan], [0.0, 0.0], [1.0, 2.0, 3.0])
    with open(os.path.join(head, "extra.csv"), "w") as fh:
        fh.write("a\n1\n")
    parts = bench_pairs.output_deviation(base, head)["parts"]
    assert parts == {
        "diagnostics.csv:l2": math.inf,
        "snapshot_0000.bin": math.inf,
        "extra.csv": math.inf,
    }


def result_line(**metrics):
    return json.dumps({"correct": True, "metrics": {
        name: {"value": value, "unit": "s"} for name, value in metrics.items()
    }})


@pytest.mark.parametrize(
    "stdout, ok",
    [
        ("machine: {}\n" + result_line(a=1.5, b=0) + "\n", True),
        (result_line(a=1.5, b=float("nan")), False),
        (result_line(a=1.5, b=float("inf")), False),
        (result_line(a=1.5, b=None), False),
        (result_line(a=True), False),
        (result_line(), False),
        (result_line(a=1.5) + "\nTraceback (most recent call last):", False),
        ('{"metrics": [1, 2]}', False),
        ("", False),
    ],
    ids=["finite", "nan", "infinity", "null", "bool", "no-metrics", "not-last",
         "metrics-not-a-map", "empty"],
)
def test_traced_line_ok(bench_pairs, stdout, ok):
    assert bench_pairs.traced_line_ok(stdout) is ok


@pytest.mark.parametrize(
    "stdout, counts",
    [
        ("....\n354 passed in 76.75s (0:01:16)\n", (354, 0, 0, 0)),
        (
            "F.s\nFAILED tests/test_x.py::test_y - assert 0\n"
            "1 failed, 352 passed, 2 skipped, 3 warnings in 70.10s (0:01:10)\n",
            (352, 1, 2, 0),
        ),
        ("E\n1 error in 0.31s\n", (0, 0, 0, 1)),
        ("3 passed, 2 errors in 1.00s\n", (3, 0, 0, 2)),
        ("", (0, 0, 0, 0)),
    ],
    ids=["passed", "mixed", "one-error", "errors", "empty"],
)
def test_pytest_counts(bench_pairs, stdout, counts):
    got = bench_pairs.pytest_counts(stdout)
    assert (got["passed"], got["failed"], got["skipped"], got["errors"]) == counts


DURATIONS = """\
........................................................................ [100%]
============================= slowest 3 durations ==============================
9.21s call     tests/test_experiments.py::TestOperatorRate::test_d3_rate_and_tail
0.52s setup    tests/test_cli.py::TestSolve::test_beam_run_artifacts[d3-16]
0.01s teardown tests/test_x.py::test_y
413 passed in 76.65s (0:01:16)
"""
SLOWEST = [
    ("tests/test_experiments.py::TestOperatorRate::test_d3_rate_and_tail", "call", 9.21),
    ("tests/test_cli.py::TestSolve::test_beam_run_artifacts[d3-16]", "setup", 0.52),
    ("tests/test_x.py::test_y", "teardown", 0.01),
]
HIDDEN = "(1 durations < 0.005s hidden.  Use -vv to show these durations.)"


@pytest.mark.parametrize(
    "stdout, slowest",
    [
        (DURATIONS, SLOWEST),
        (DURATIONS.replace("0.01s teardown tests/test_x.py::test_y", HIDDEN), SLOWEST[:2]),
        ("....\n354 passed in 76.75s (0:01:16)\n", []),
    ],
    ids=["three", "hidden-line", "none"],
)
def test_slowest_tests(bench_pairs, stdout, slowest):
    """The rows of pytest's --durations section, slowest first, up to the
    first line that is not one."""
    got = bench_pairs.slowest_tests(stdout)
    assert [(row["test"], row["phase"], row["s"]) for row in got] == slowest
