"""
The benchmark's traced result line as strict JSON.

`perfbench/run.py` prints one JSON object as its last line, and tooling
reads it with a strict parser.  The per-layer values come from wrappers on
the package's module bindings (`perfbench/tracing.BINDINGS`), so a binding
the package drops or renames turns its metric into null, and a non-finite
value prints as NaN or Infinity, which strict JSON rejects.  A byte
counter that can no longer size its call (`write_snapshot` is sized from
its path argument after each call) also reads null.  One traced repetition
of each workload (1-2 s each) must give a line that parses strictly, with
every job correct and every metric a finite number, and every binding must
still resolve to a callable.  A wrapper can also be bypassed without going
missing: a module that binds `frac_lap_spectral` by name at import time
calls the unwrapped function, and the metric reads a finite 0.  The
projected engine builds its plane operator through that function, so on the
projected-plane workload its time must be above 0.
"""

import importlib
import json
import math
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from tracing import BINDINGS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_every_binding_resolves():
    for module, attr, _ in BINDINGS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"{module}.{attr}"
        )


def traced_result(workload):
    """The strictly parsed last line of one traced repetition of `workload`,
    checked: every job correct and every metric a finite number."""
    out = subprocess.run(
        [
            sys.executable,
            os.path.join("perfbench", "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "0",
            "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    last = out.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True, last
    assert result["failed"] == 0, last
    assert result["metrics"], last
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), (
            f"{name} = {value!r}"
        )
        assert math.isfinite(value), f"{name} = {value!r}"
    return result


def test_traced_projected_run_prints_strict_json():
    result = traced_result("solve-d2-projected")
    lap_s = result["metrics"]["fracop.frac_lap_spectral.s"]["value"]
    assert lap_s > 0, f"fracop.frac_lap_spectral.s = {lap_s!r}: the wrapper saw no call"


@pytest.mark.parametrize(
    "workload", sorted(w for w in WORKLOADS if w != "solve-d2-projected")
)
def test_traced_run_prints_strict_json(workload):
    traced_result(workload)
