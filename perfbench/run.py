"""
Benchmark of prte batch jobs, run from the root of a checkout:

    python3 perfbench/run.py --workload solve-d2-beam --seed 0 --seconds 30 --trace 0

Every job is a fresh `python3 -m prte.cli` process on the checkout's `src/`,
launched one at a time (a closed loop with one client).  A repetition is a
set-up job (the same config cut to one step) followed by the full job; the
loop repeats until `--seconds` would be exceeded.  Every job's output is
checked.  With `--trace 0` the end-to-end metrics are reported; with
`--trace 1` each repetition is an untraced job and a traced one
(perfbench/tracing.py), and the per-layer metrics are reported.  The last
line of standard output is one JSON object; see perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from checks import REFERENCE_FINAL_ROWS, check_job
from tracing import JOB_METRICS, SPAN_METRICS, Span, layer_metrics
from workloads import WORKLOADS, beam_for_seed, config_text, initial_mass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
#: the whole benchmark ends within this many seconds of starting
HARD_LIMIT_S = 170.0


@dataclass
class Job:
    wall_s: float
    rss_mb: float
    problems: list

    @property
    def ok(self):
        return not self.problems


class Runner:
    """Launches, times and checks the jobs of one workload and seed."""

    def __init__(self, wl, seed, deadline):
        self.wl = wl
        self.seed = seed
        self.deadline = deadline
        self.beam = beam_for_seed(seed, wl.dimension)
        self.mass0 = initial_mass(wl, self.beam)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        # one BLAS thread: on a small shared machine a second one mostly
        # measures the scheduler (the d=3 job was no faster with two)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.dir = os.path.join(WORK, f"{wl.name}-{seed}-{os.getpid()}")
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.configs = {}

    def config(self, steps):
        if steps not in self.configs:
            path = os.path.join(self.dir, f"steps{steps}.ini")
            with open(path, "w") as fh:
                fh.write(config_text(self.wl, self.beam, steps))
            self.configs[steps] = path
        return self.configs[steps]

    def launch(self, argv, log):
        """(wall seconds, peak RSS in MB, exit code) of one child process."""
        timeout = self.deadline - time.monotonic()
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=fh, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT
            )
            timer = threading.Timer(max(timeout, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def job(self, steps, spans=None):
        """Run one job of `steps` steps, traced when `spans` names a file."""
        out = os.path.join(self.dir, "out")
        cli = [self.wl.command, "--config", self.config(steps), "--out", out]
        if spans is None:
            argv = [sys.executable, "-m", "prte.cli", *cli]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracing.py"),
                    "--spans", spans, "--", *cli]
        log = os.path.join(self.dir, "job.log")
        wall, rss, code = self.launch(argv, log)
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            reference = None
            if self.seed == 0 and steps == self.wl.steps:
                reference = REFERENCE_FINAL_ROWS.get(self.wl.name)
            problems = check_job(self.wl, steps, out, self.mass0, reference)
        if problems:
            self.failed += 1
            with open(log, errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"job failed ({steps} steps): {problems}\n{tail}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return Job(wall, rss, problems)


def _median(xs):
    return statistics.median(xs) if xs else None


def _describe(name, unit, xs):
    """Median, the highest percentile with at least ten samples beyond it
    (the maximum when none has), and the sample count."""
    if not xs:
        return f"  {name}: no successful samples"
    tail = f"max {max(xs):.6g}"
    for p in (50, 90, 99):
        if len(xs) * (100 - p) / 100.0 >= 10:
            q = statistics.quantiles(xs, n=100, method="inclusive")
            tail = f"p{p} {q[p - 1]:.6g}"
    listed = ", ".join(f"{x:.6g}" for x in xs)
    return (f"  {name}: median {statistics.median(xs):.6g} {unit}, {tail} {unit}, "
            f"n={len(xs)}; samples: {listed}")


def repeat(runner, seconds, once):
    """Call `once` (one repetition; returns False when a job failed) at least
    once, and again while the next call should end within `seconds`."""
    end = min(time.monotonic() + seconds, runner.deadline)
    while True:
        t0 = time.monotonic()
        ok = once()
        now = time.monotonic()
        if not ok or now + (now - t0) > end:
            return


def measure_end_to_end(runner, seconds):
    wl = runner.wl
    setup, job, rss = [], [], []

    def once():
        s = runner.job(1)
        j = runner.job(wl.steps)
        if s.ok:
            setup.append(s.wall_s)
        if j.ok:
            job.append(j.wall_s)
            rss.append(j.rss_mb)
        return s.ok and j.ok

    repeat(runner, seconds, once)
    samples = {
        "job_s": ("s", job),
        "setup_s": ("s", setup),
        "peak_rss_mb": ("MB", rss),
    }
    for name, (unit, xs) in samples.items():
        print(_describe(name, unit, xs))
    out = {name: {"value": _median(xs), "unit": unit} for name, (unit, xs) in samples.items()}
    # the march rate from the two medians: pairing each full job with the
    # set-up job just before it would add the machine's second-to-second
    # speed changes between the two to every sample
    rate = None
    if job and setup and _median(job) > _median(setup):
        rate = wl.phase_points() * (wl.steps - 1) / (_median(job) - _median(setup))
        print(f"  updates_per_s: {rate:.6g} 1/s, from the job_s and setup_s medians "
              f"(n={len(job)}, n={len(setup)})")
    out["updates_per_s"] = {"value": rate, "unit": "1/s"}
    return out


def measure_layers(runner, seconds):
    wl = runner.wl
    plain, traced, imports, per_job = [], [], [], []
    spans_path = os.path.join(runner.dir, "spans.json")
    missing = set()

    def once():
        # alternate which job goes first, so neither side always follows the other
        if len(plain) % 2:
            t = runner.job(wl.steps, spans=spans_path)
            p = runner.job(wl.steps)
        else:
            p = runner.job(wl.steps)
            t = runner.job(wl.steps, spans=spans_path)
        if p.ok:
            plain.append(p.wall_s)
        if t.ok:
            traced.append(t.wall_s)
            with open(spans_path) as fh:
                rec = json.load(fh)
            imports.append(rec["import_s"])
            per_job.append(layer_metrics(
                [Span(*s) for s in rec["spans"]], set(rec["installed"])
            ))
            missing.update(rec["missing"])
        return p.ok and t.ok

    repeat(runner, seconds, once)
    if missing:
        print(f"  bindings missing: {sorted(missing)}")
    out = {}
    for metric, unit, _, _, _ in SPAN_METRICS:
        xs = [m[metric] for m in per_job if m[metric] is not None]
        out[metric] = {"value": _median(xs), "unit": unit}
    overhead = None
    if plain and traced:
        overhead = _median(traced) - _median(plain)
    values = {"cli.import_s": _median(imports), "trace.overhead_s": overhead}
    for metric, unit, _ in JOB_METRICS:
        out[metric] = {"value": values[metric], "unit": unit}
    print(f"  traced jobs: n={len(traced)}; untraced: n={len(plain)}")
    for metric, m in out.items():
        shown = "absent" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        print(f"  {metric}: {shown}")
    return out


def machine_facts(runner):
    """Facts that qualify a result: cores, CPU, caches, versions, BLAS, commit."""
    facts = {
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "commit": _commit(),
        "seed": runner.seed,
        "beam": {"center": runner.beam.center, "sigma_theta": runner.beam.sigma_theta},
    }
    probe = (
        "import ctypes, glob, json, os, numpy, scipy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "threads = None\n"
        "libs = os.path.join(os.path.dirname(numpy.__file__), '..', 'numpy.libs')\n"
        "for path in glob.glob(os.path.join(libs, '*openblas*')):\n"
        "    lib = ctypes.CDLL(path)\n"
        "    for sym in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads'):\n"
        "        fn = getattr(lib, sym, None)\n"
        "        if fn is not None:\n"
        "            fn.restype = ctypes.c_int\n"
        "            threads = fn()\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
        "    'blas': f\"{blas.get('name')} {blas.get('version')}\", 'blas_threads': threads}))\n"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, timeout=60, env=runner.env,
        )
        facts.update(json.loads(out.stdout))
    except (subprocess.SubprocessError, ValueError) as exc:
        facts["numpy"] = f"unknown ({exc})"
    return facts


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            with open(os.path.join(d, "level")) as f1, open(os.path.join(d, "size")) as f2:
                level, size = f1.read().strip(), f2.read().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = size
    except OSError:
        pass
    return out


def _commit():
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description="prte batch-job benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still stops its job and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + HARD_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "prte", "cli.py")):
        print(f"no prte sources under {SRC}; run from a prte checkout", file=sys.stderr)
        return 2
    runner = Runner(WORKLOADS[args.workload], args.seed, deadline)
    try:
        # compile the checkout's bytecode once, as an installed package has it
        _, _, code = runner.launch(
            [sys.executable, "-c", "import prte.cli"], os.path.join(runner.dir, "warm.log")
        )
        if code != 0:
            print("cannot import prte.cli from the checkout", file=sys.stderr)
            return 2
        print(f"workload {args.workload}, seed {args.seed}: {runner.beam}")
        if args.trace:
            metrics = measure_layers(runner, args.seconds)
        else:
            metrics = measure_end_to_end(runner, args.seconds)
        print(f"  failed_ratio: {runner.failed}/{runner.attempted} jobs = "
              f"{runner.failed / runner.attempted:.6g}")
        print("machine: " + json.dumps(machine_facts(runner)))
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
