"""
Output checks for one prte job.  Each check returns a list of problems; an
empty list means the job's output is correct.  The tolerances are the run
invariants prte itself enforces, restated here so a regression in the
library cannot loosen them.
"""

import math
import os

from workloads import LEVEL_SET_LADDER

DIAGNOSTICS_HEADER = "time,mass,l2,linf,hs_integral,energy_residual"
#: relative mass drift allowed over a whole run
MASS_DRIFT_TOL = 1e-8
#: relative L2 growth allowed per step
L2_STEP_SLACK = 1e-10
#: interval energy residual / interval-start ||u||^2 may not drop below this
RESIDUAL_FLOOR = -1e-6
#: relative distance allowed between the recorded initial mass and its closed
#: form: roundoff for the sphere quadratures; the projected plane's lattice
#: sum differs from its arc integral by ~3e-5 (left-endpoint rule)
INITIAL_MASS_RTOL = {"sphere-spectral": 1e-12, "projected-plane": 1e-4}
#: seed-0 final rows: relative tolerance on time, mass, l2, linf, hs_integral;
#: the energy residual is compared absolutely, scaled by the initial ||u||^2
REFERENCE_RTOL = 1e-8
#: magic, four uint32 fields and a float64 time
SNAPSHOT_HEADER_BYTES = 4 + 4 * 4 + 8

#: final diagnostics row of each solve workload at seed 0, with its step
#: count: time, mass, l2, linf, hs_integral, energy_residual
REFERENCE_FINAL_ROWS = {
    "solve-d2-beam": {
        "steps": 20,
        "row": (0.2000000000000001, 10.026360307022477, 1.2014722374129339,
                0.42649232188942765, 0.18081429473536145, -2.220446049250313e-14),
    },
    "solve-d3-beam": {
        "steps": 5,
        "row": (0.09999999999999999, 35.48705586139974, 1.575584780520738,
                0.30166258522794404, 0.16366432961987826, -5.551115123125783e-17),
    },
    "solve-d2-projected": {
        "steps": 12,
        "row": (0.06000000000000002, 9.926586573299502, 1.477646906049473,
                0.7085565591575573, 0.07950028534254003, 0.02165405672162668),
    },
}


def expected_count(steps, every):
    """Rows (or snapshots) a run emits: the initial one, every `every` steps
    and the final step."""
    return 1 + steps // every + (1 if steps % every else 0)


def read_diagnostics(path):
    """The rows of a diagnostics.csv as tuples of floats."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DIAGNOSTICS_HEADER:
        raise ValueError(f"{path}: unexpected header {lines[:1]}")
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def check_diagnostics(rows, steps, dt, diagnostics_every, initial_mass, mass_rtol):
    """Mass drift, per-record L2, energy residual floor, row count, initial mass."""
    problems = []
    want = expected_count(steps, diagnostics_every)
    if len(rows) != want:
        return [f"{len(rows)} diagnostic rows, expected {want}"]
    if not all(math.isfinite(v) for row in rows for v in row):
        return ["non-finite value in diagnostics"]
    if abs(rows[-1][0] - steps * dt) > 1e-9 * max(1.0, steps * dt):
        problems.append(f"final time {rows[-1][0]!r}, expected {steps * dt!r}")
    mass0 = rows[0][1]
    if abs(mass0 - initial_mass) > mass_rtol * abs(initial_mass):
        problems.append(
            f"initial mass {mass0!r} differs from closed form {initial_mass!r} "
            f"by more than {mass_rtol:g} relative"
        )
    drift = max(abs(r[1] - mass0) for r in rows) / abs(mass0)
    if drift > MASS_DRIFT_TOL:
        problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    for i in range(1, len(rows)):
        prev, cur = rows[i - 1], rows[i]
        n = round((cur[0] - prev[0]) / dt)
        if cur[2] > prev[2] * (1.0 + L2_STEP_SLACK) ** max(n, 1):
            problems.append(f"L2 grew from {prev[2]!r} to {cur[2]!r} at row {i}")
        scaled = cur[5] / prev[2] ** 2
        if scaled < RESIDUAL_FLOOR:
            problems.append(f"energy residual {scaled:.3e} < {RESIDUAL_FLOOR:g} at row {i}")
    return problems


def check_reference(final_row, reference, l2_initial):
    """Compare a final diagnostics row with its stored seed-0 values."""
    problems = []
    names = DIAGNOSTICS_HEADER.split(",")
    for name, got, want in zip(names[:5], final_row[:5], reference[:5]):
        if abs(got - want) > REFERENCE_RTOL * abs(want):
            problems.append(f"final {name} {got!r} != reference {want!r}")
    if abs(final_row[5] - reference[5]) > REFERENCE_RTOL * l2_initial**2:
        problems.append(
            f"final energy_residual {final_row[5]!r} != reference {reference[5]!r}"
        )
    return problems


def check_snapshots(outdir, count, payload_bytes):
    """`count` snapshot files, each a header plus the full field."""
    names = sorted(n for n in os.listdir(outdir) if n.startswith("snapshot_"))
    if len(names) != count:
        return [f"{len(names)} snapshots, expected {count}"]
    want = SNAPSHOT_HEADER_BYTES + payload_bytes
    return [
        f"{n}: {os.path.getsize(os.path.join(outdir, n))} bytes, expected {want}"
        for n in names
        if os.path.getsize(os.path.join(outdir, n)) != want
    ]


def check_report(outdir, study, ladder_len):
    """A study report that says PASS, with every check row passed."""
    txt = os.path.join(outdir, f"{study}.report.txt")
    csv = os.path.join(outdir, f"{study}.report.csv")
    if not (os.path.isfile(txt) and os.path.isfile(csv)):
        return [f"missing {study} report"]
    problems = []
    with open(txt) as fh:
        if "result: PASS" not in fh.read().splitlines():
            problems.append(f"{txt} does not show PASS")
    with open(csv) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    points = [r for r in rows if r[0] == "point"]
    checks = [r for r in rows if r[0] == "check"]
    if len(points) != ladder_len:
        problems.append(f"{len(points)} report points, expected {ladder_len}")
    if not checks or any(r[-1] != "1" for r in checks):
        problems.append("a report check row did not pass")
    return problems


def check_job(wl, steps, outdir, initial_mass, reference=None):
    """Every check that applies to a finished job of workload `wl`."""
    if wl.study:
        return check_report(outdir, wl.study, len(LEVEL_SET_LADDER))
    path = os.path.join(outdir, "diagnostics.csv")
    try:
        rows = read_diagnostics(path)
    except (OSError, ValueError) as exc:
        return [f"cannot read diagnostics: {exc}"]
    problems = check_diagnostics(
        rows,
        steps,
        wl.dt,
        wl.diagnostics_every,
        initial_mass,
        INITIAL_MASS_RTOL[wl.backend],
    )
    if wl.snapshot_every:
        problems += check_snapshots(
            outdir,
            expected_count(steps, wl.snapshot_every),
            8 * wl.phase_points(),
        )
    if reference is not None:
        if reference["steps"] != steps:
            problems.append(f"reference was recorded at {reference['steps']} steps")
        else:
            problems += check_reference(rows[-1], reference["row"], rows[0][2])
    return problems
