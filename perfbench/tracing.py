"""
Layer tracing of one prte CLI job from outside the library.

    python3 perfbench/tracing.py --spans SPANS.json -- solve --config run.ini --out DIR

times `import prte.cli` in this fresh interpreter, wraps the module-level
names in BINDINGS with span recorders, runs `prte.cli.main` on the arguments
after `--`, and writes the spans once, at the end, as JSON.  It exits with
the job's exit code.  Each wrapper sits on the binding the caller looks up
(`prte.cli.run` and `prte.experiments.run` are separate names for the same
function), and a binding that no longer exists is recorded as missing, so
the metrics that depend on it read as absent instead of failing.

The metric arithmetic (`self_times`, `layer_metrics`) uses the standard
library only, so the benchmark's tests can run it on synthetic spans.
"""

import argparse
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict, namedtuple
from functools import wraps

Span = namedtuple("Span", "id parent name start end nbytes")

#: (module, attribute, span name), in the order the wrappers are installed
BINDINGS = (
    ("prte.cli", "run", "solver.run"),
    ("prte.experiments", "run", "solver.run"),
    ("prte.solver", "strang_step_energy", "solver.strang_step_energy"),
    ("prte.experiments", "strang_step_energy", "experiments.strang_step_energy"),
    ("prte.solver", "transport_step", "solver.transport_step"),
    ("prte.solver", "funk_hecke_eigs", "scatter.funk_hecke_eigs"),
    ("prte.cli", "funk_hecke_eigs", "scatter.funk_hecke_eigs"),
    ("prte.solver", "basis_at_directions", "scatter.basis_at_directions"),
    # the projected engine imports it from prte.fracop at build time
    ("prte.fracop", "frac_lap_spectral", "fracop.frac_lap_spectral"),
    ("prte.cli", "make_initial", "solver.make_initial"),
    ("prte.cli", "level_set_energy_check", "experiments.level_set"),
    ("prte.experiments", "energy_functionals", "solver.energy_functionals"),
    ("prte.cli", "write_snapshot", "solver.write_snapshot"),
    ("prte.cli", "write_diagnostics", "solver.write_diagnostics"),
    ("prte.cli", "write_report", "experiments.write_report"),
)

#: per-layer metrics taken from spans: (metric, unit, better, span names, kind)
#: kind: calls = span count, total = summed durations, self = summed self
#: times, bytes = summed byte counts, gbytes_per_s = bytes / total / 1e9
SPAN_METRICS = (
    ("solver.transport_step.calls", "count", "lower", ("solver.transport_step",), "calls"),
    ("solver.transport_step.s", "s", "lower", ("solver.transport_step",), "total"),
    ("solver.transport_step.gbytes_per_s", "GB/s", "higher", ("solver.transport_step",), "gbytes_per_s"),
    ("scatter.engine.s", "s", "lower", ("solver.strang_step_energy", "experiments.strang_step_energy"), "self"),
    ("solver.run.self_s", "s", "lower", ("solver.run",), "self"),
    ("scatter.funk_hecke_eigs.calls", "count", "lower", ("scatter.funk_hecke_eigs",), "calls"),
    ("scatter.funk_hecke_eigs.s", "s", "lower", ("scatter.funk_hecke_eigs",), "total"),
    ("scatter.basis_at_directions.s", "s", "lower", ("scatter.basis_at_directions",), "total"),
    ("fracop.frac_lap_spectral.s", "s", "lower", ("fracop.frac_lap_spectral",), "total"),
    ("solver.make_initial.s", "s", "lower", ("solver.make_initial",), "total"),
    ("experiments.level_set.self_s", "s", "lower", ("experiments.level_set",), "self"),
    ("experiments.replay_steps", "count", "lower", ("experiments.strang_step_energy",), "calls"),
    ("solver.energy_functionals.calls", "count", "lower", ("solver.energy_functionals",), "calls"),
    ("solver.energy_functionals.s", "s", "lower", ("solver.energy_functionals",), "total"),
    ("solver.write_snapshot.calls", "count", "lower", ("solver.write_snapshot",), "calls"),
    ("solver.write_snapshot.s", "s", "lower", ("solver.write_snapshot",), "total"),
    ("solver.write_snapshot.bytes", "bytes", "lower", ("solver.write_snapshot",), "bytes"),
    ("solver.write_diagnostics.s", "s", "lower", ("solver.write_diagnostics",), "total"),
    ("experiments.write_report.s", "s", "lower", ("experiments.write_report",), "total"),
)

#: per-layer metrics the benchmark measures around the traced job itself
JOB_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _transport_bytes(args, kwargs):
    """Computed, not measured: one read of the input and one write of the
    output field, the least traffic any transport step needs."""
    u = args[0] if args else kwargs["u"]
    return 2 * u.values.nbytes


def _written_bytes(args, kwargs):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


BYTE_COUNTERS = {
    "solver.transport_step": _transport_bytes,
    "solver.write_snapshot": _written_bytes,
}


class Tracer:
    """Records spans in memory; parents come from a per-thread call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, count_bytes=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
            try:
                nbytes = count_bytes(args, kwargs) if count_bytes else 0
            except (LookupError, AttributeError, OSError):
                nbytes = None  # the call no longer has the expected shape
            self.spans.append(Span(sid, parent, name, start, end, nbytes))
            return result

        return traced

    def install(self, bindings=BINDINGS):
        """Wrap every binding that exists; returns the span names installed
        and the bindings that are missing."""
        installed, missing = set(), []
        for module_name, attr, name in bindings:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, BYTE_COUNTERS.get(name)))
            installed.add(name)
        return installed, missing


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
        for s in spans
    }


def layer_metrics(spans, installed):
    """SPAN_METRICS from one job's spans; None where no binding of a metric's
    spans exists, or where its bytes could not be counted."""
    own = self_times(spans)
    calls, total, self_s, nbytes = (defaultdict(int), defaultdict(float),
                                    defaultdict(float), defaultdict(int))
    uncounted = set()
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_s[s.name] += own[s.id]
        if s.nbytes is None:
            uncounted.add(s.name)
        else:
            nbytes[s.name] += s.nbytes
    out = {}
    for metric, _, _, names, kind in SPAN_METRICS:
        counted = kind not in ("bytes", "gbytes_per_s") or not uncounted.intersection(names)
        if not counted or not any(n in installed for n in names):
            out[metric] = None
        elif kind == "calls":
            out[metric] = sum(calls[n] for n in names)
        elif kind == "total":
            out[metric] = sum(total[n] for n in names)
        elif kind == "self":
            out[metric] = sum(self_s[n] for n in names)
        elif kind == "bytes":
            out[metric] = sum(nbytes[n] for n in names)
        else:
            secs = sum(total[n] for n in names)
            out[metric] = sum(nbytes[n] for n in names) / secs / 1e9 if secs else 0.0
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    t0 = time.perf_counter()
    cli = importlib.import_module("prte.cli")
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    installed, missing = tracer.install()
    code = cli.main(cli_args)
    with open(args.spans, "w") as fh:
        json.dump(
            {
                "import_s": import_s,
                "installed": sorted(installed),
                "missing": missing,
                "spans": [list(s) for s in tracer.spans],
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
