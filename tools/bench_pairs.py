"""
Same-session before/after benchmark: `perfbench/run.py` on a base checkout
and on this checkout, alternated pair by pair, summarised in one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --label my_change --pairs 10 --seeds 0 1

`--base REV` unpacks that git revision (`git archive`) into a temporary
directory, which is removed at the end.  For every workload and seed, pair
k runs `perfbench/run.py --trace 0` once on each side, the base first when
k is even and the head first when k is odd, so neither side always runs in
the other's wake.  A pair's winner on a metric is the side whose value is
better in the direction `BENCHMARK.json` gives.  Times are comparable only within
one session on one machine, which is why both sides run here side by side.

Besides the timed runs, each side runs one set-up job (one step) and one
full job of every workload at the first seed as a plain `python3 -m
prte.cli` child, and `os.wait4` records its minor page faults (`ru_minflt`),
peak RSS and CPU seconds (`ru_utime + ru_stime`), so that a gain in wall
time from running on more CPUs shows its CPU cost beside it.  The two
sides' full jobs of a workload must write the same files with the same
bytes; `outputs_identical` records whether they did.
Where they did not, `outputs_max_rel_dev` records how far apart they are
(see `output_deviation`), and `energy_residual_dev` how far their
`energy_residual` cells are apart against 1/2 l2^2 of their rows (see
`residual_deviation`).  Each side also runs one traced repetition of
every workload at the first seed (`--seconds 0 --trace 1`), and
`traced_line_ok` records whether its last line is a result the benchmark
can read (see `traced_line_ok`).  Last, each side runs the tier-1 suite
(`TIER1_COMMAND`) once, and `tier1` records its wall time and its passed,
failed, skipped and error counts.

The result goes to `BENCH_<label>.json` in this checkout's root: per workload, seed and end-to-end metric, each side's samples,
median, quartiles and range, the head/base ratio of the medians, the head's
pair wins, and whether the head is clearly better: it wins at least 9 pairs
in 10 and the medians differ by more than the base's interquartile range.
"""

import argparse
import csv
import filecmp
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS, beam_for_seed, config_text  # noqa: E402

#: a clear gain wins at least this share of the pairs
WIN_SHARE = 0.9
#: the tier-1 suite, run from the root of a side with its src/ on PYTHONPATH
TIER1_COMMAND = ("-m", "pytest", "-q", "--continue-on-collection-errors")


def end_to_end_metrics():
    """(name, better) of each end-to-end metric BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def head_commit():
    """This checkout's HEAD, marked when the working tree differs from it."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                             capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"], check=True,
                               capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + (" plus uncommitted changes" if dirty else "")


def unpack_base(rev, into):
    """The tree of git revision `rev`, unpacked under `into`."""
    dest = os.path.join(into, "base")
    os.makedirs(dest)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def bench_once(tree, workload, seed, seconds):
    """The JSON result and the machine facts of one perfbench run on `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed on {tree}: {proc.stderr[-2000:]}")
    machine = {}
    for line in lines:
        if line.startswith("machine: "):
            machine = json.loads(line[len("machine: "):])
    return json.loads(lines[-1]), machine


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def traced_line_ok(stdout):
    """Whether the last line of a traced perfbench run's output parses as
    strict JSON (NaN and Infinity rejected) into a result whose metrics are
    all finite numbers; a missing binding or an uncounted byte total makes
    its metric null, which fails here."""
    lines = stdout.strip().splitlines()
    try:
        metrics = json.loads(lines[-1], parse_constant=_reject_constant)["metrics"]
        values = [m["value"] for m in metrics.values()]
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return False
    return bool(values) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
        for v in values
    )


def traced_once(tree, workload, seed):
    """traced_line_ok of one traced repetition of `workload` on `tree`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=tree, capture_output=True, text=True,
    )
    return traced_line_ok(proc.stdout)


def job_usage(tree, wl, seed, steps, out):
    """Minor page faults, peak RSS (MB) and CPU seconds (user plus system,
    every thread's) of one prte CLI job on `tree`, which writes its outputs
    to the directory `out`."""
    cfg = out + ".ini"
    with open(cfg, "w") as fh:
        fh.write(config_text(wl, beam_for_seed(seed, wl.dimension), steps))
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "prte.cli", wl.command, "--config", cfg, "--out", out],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{wl.name} ({steps} steps) failed on {tree}")
    return {
        "minflt": usage.ru_minflt,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def pytest_counts(stdout):
    """{passed, failed, skipped, errors} from the summary line of a pytest
    run's output, the last line that reports a count (0 where it has none)."""
    counts = dict.fromkeys(("passed", "failed", "skipped", "errors"), 0)
    for line in reversed(stdout.strip().splitlines()):
        found = re.findall(r"(\d+) (passed|failed|skipped|errors?)\b", line)
        if found:
            for n, word in found:
                counts["errors" if word.startswith("error") else word] = int(n)
            break
    return counts


def tier1_once(tree):
    """Wall time (s) and pytest_counts of one tier-1 run on `tree`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1_COMMAND], cwd=tree, env=env,
                          capture_output=True, text=True)
    return {"wall_s": time.perf_counter() - start, **pytest_counts(proc.stdout)}


def same_outputs(a, b):
    """Whether directories a and b hold the same files, byte for byte."""
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False)
        for n in names
    )


#: bytes before the payload doubles of a snapshot file (prte.solver's
#: SNAPSHOT_HEADER_BYTES: magic, four uint32 and the time)
SNAPSHOT_HEADER_BYTES = 28


def _numeric_parts(path):
    """{part name: values} of one output file: each column of a CSV file,
    as a float64 array where every cell parses as a float and as the list of
    cells where not, or a snapshot's payload doubles, with its header bytes
    under "<name>:header"."""
    name = os.path.basename(path)
    if name.endswith(".bin"):
        with open(path, "rb") as fh:
            raw = fh.read()
        return {
            name + ":header": raw[:SNAPSHOT_HEADER_BYTES],
            name: np.frombuffer(raw, "<f8", offset=SNAPSHOT_HEADER_BYTES),
        }
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    parts = {}
    for col, label in enumerate(header):
        try:
            parts[f"{name}:{label}"] = np.array([float(r[col]) for r in rows])
        except (ValueError, IndexError):
            parts[f"{name}:{label}"] = [r[col] if col < len(r) else None for r in rows]
    return parts


def _part_deviation(a, b):
    """max |a - b| over one part, relative to the base's largest magnitude
    there (the head's where that is 0); inf when the part's shape, a
    non-numeric cell or a non-finite value differs."""
    if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
        return 0.0 if a == b else math.inf
    if a.shape != b.shape:
        return math.inf
    finite = np.isfinite(a) & np.isfinite(b)
    if not np.array_equal(a[~finite], b[~finite], equal_nan=True):
        return math.inf
    diff = float(np.max(np.abs(a[finite] - b[finite]), initial=0.0))
    if diff == 0.0:
        return 0.0
    scale = float(np.max(np.abs(a[finite]), initial=0.0)) or float(
        np.max(np.abs(b[finite]), initial=0.0)
    )
    return diff / scale


def output_deviation(base, head):
    """
    How far the head's output directory is from the base's, over the numeric
    CSV cells and the snapshot payload doubles (other files are not read):
    {"max": the largest part deviation, "at": where it is, "parts": every
    nonzero one}.  A part is one CSV column or one snapshot payload, and its
    deviation is max |head - base| relative to the base's largest magnitude
    in it, so a column that holds only roundoff (an energy residual) shows
    about 1 when its roundoff moves.  A file on one side only, or a header
    that differs, is inf.
    """
    names = sorted(set(os.listdir(base)) | set(os.listdir(head)))
    parts = {}
    for name in names:
        if not name.endswith((".csv", ".bin")):
            continue
        a_path, b_path = os.path.join(base, name), os.path.join(head, name)
        if not (os.path.exists(a_path) and os.path.exists(b_path)):
            parts[name] = math.inf
            continue
        a, b = _numeric_parts(a_path), _numeric_parts(b_path)
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                parts[key] = math.inf
            else:
                parts[key] = _part_deviation(a[key], b[key])
    nonzero = {k: v for k, v in parts.items() if v != 0.0}
    at = max(nonzero, key=nonzero.get) if nonzero else None
    return {"max": nonzero.get(at, 0.0), "at": at, "parts": nonzero}


def residual_deviation(base, head):
    """
    How far the head's `energy_residual` cells are from the base's, each
    against the scale of its own row, 1/2 l2^2 of the base: {"max": the
    largest, "at": the CSV file it is in}, or None where no CSV file on both
    sides has both columns.  The column holds a roundoff-sized difference of
    O(||u||^2) terms, so `output_deviation`, which scales it by its own
    largest magnitude, reads about 1 when its roundoff moves; this reads
    that roundoff at the size the energy checks judge it by.  A row count
    that differs, or a cell whose ratio is not a number, is inf.
    """
    found = {}
    for name in sorted(set(os.listdir(base)) & set(os.listdir(head))):
        if not name.endswith(".csv"):
            continue
        a, b = _numeric_parts(os.path.join(base, name)), _numeric_parts(os.path.join(head, name))
        keys = (f"{name}:energy_residual", f"{name}:l2")
        if not all(isinstance(part.get(k), np.ndarray) for part in (a, b) for k in keys):
            continue
        res_a, l2_a, res_b = a[keys[0]], a[keys[1]], b[keys[0]]
        if res_a.shape != res_b.shape:
            found[name] = math.inf
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(res_b - res_a) / (0.5 * l2_a**2)
        rel[res_a == res_b] = 0.0
        found[name] = float(np.max(np.where(np.isnan(rel), math.inf, rel), initial=0.0))
    if not found:
        return None
    at = max(found, key=found.get)
    return {"max": found[at], "at": at}


def describe(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs),
            "samples": xs}


def compare(base, head, better):
    """Summary of one metric over paired samples (None where a run had none)."""
    pairs = [(b, h) for b, h in zip(base, head) if b is not None and h is not None]
    if len(pairs) < 2:
        return None
    bs, hs = [b for b, _ in pairs], [h for _, h in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in pairs)
    b, h = describe(bs), describe(hs)
    gap = sign * (h["median"] - b["median"])
    return {
        "better": better,
        "base": b,
        "head": h,
        "head_over_base": h["median"] / b["median"] if b["median"] else None,
        "head_wins": f"{wins}/{len(pairs)}",
        "median_gap": gap,
        "base_iqr": b["q3"] - b["q1"],
        "clearly_better": wins >= WIN_SHARE * len(pairs) and gap > b["q3"] - b["q1"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="--seconds of each perfbench run")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        sides = {"base": unpack_base(args.base, tmp), "head": ROOT}
        host, results, correct = {}, {}, True
        for name in sorted(WORKLOADS):
            for seed in args.seeds:
                runs = {"base": [], "head": []}
                for k in range(args.pairs):
                    for tag in ("base", "head") if k % 2 == 0 else ("head", "base"):
                        res, machine = bench_once(sides[tag], name, seed, args.seconds)
                        host = host or machine
                        correct = correct and res["correct"]
                        runs[tag].append(res)
                    print(f"{name} seed {seed}: pair {k + 1}/{args.pairs}", file=sys.stderr)
                results.setdefault(name, {})[f"seed{seed}"] = {
                    metric: compare(
                        [r["metrics"][metric]["value"] for r in runs["base"]],
                        [r["metrics"][metric]["value"] for r in runs["head"]],
                        better,
                    )
                    for metric, better in metrics
                }
        usage, identical, deviation, residual, traced = {}, {}, {}, {}, {}
        for name, wl in sorted(WORKLOADS.items()):
            out = {tag: os.path.join(tmp, f"{tag}-{name}") for tag in sides}
            seed = args.seeds[0]
            traced[name] = {
                tag: traced_once(tree, name, seed) for tag, tree in sides.items()
            }
            usage[name] = {
                tag: {
                    "setup_job": job_usage(tree, wl, seed, 1, out[tag] + "-setup"),
                    "full_job": job_usage(tree, wl, seed, wl.steps, out[tag]),
                }
                for tag, tree in sides.items()
            }
            identical[name] = same_outputs(out["base"], out["head"])
            if not identical[name]:
                deviation[name] = output_deviation(out["base"], out["head"])
                residual[name] = residual_deviation(out["base"], out["head"])
            for path in out.values():
                shutil.rmtree(path, ignore_errors=True)
                shutil.rmtree(path + "-setup", ignore_errors=True)
        tier1 = {tag: tier1_once(tree) for tag, tree in sides.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0, run from the root of each side",
        "base": args.base,
        "head": head_commit(),
        "order": "pair k runs both sides back to back: base first when k is even, "
                 "head first when k is odd",
        "pairs": args.pairs,
        "host": {key: host.get(key) for key in
                 ("cpus_available", "cpu_model", "python", "numpy", "scipy", "blas",
                  "blas_threads")},
        "every_job_correct": correct,
        "results": results,
        "job_usage": usage,
        "outputs_identical": identical,
        "outputs_max_rel_dev": deviation,
        "energy_residual_dev": residual,
        "traced_line_ok": traced,
        "tier1": {"command": "python3 " + " ".join(TIER1_COMMAND), **tier1},
    }
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
