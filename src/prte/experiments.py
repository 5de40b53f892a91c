"""
Verification studies over the operator stack and the marcher.

Each study runs a parameter ladder (anisotropy g, level height lambda, or a
time ladder), measures errors or norms with the same accounting the solver
uses, fits the rates that admit one, and returns a StudyReport that can be
serialized to a `<name>.report.csv` / `<name>.report.txt` pair.  Reports are
deterministic for a fixed config: ladder jobs may run on a thread pool but
results are gathered in ladder order, so the emitted bytes never depend on
the worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    NonMonotoneConvergence,
    ParameterOutOfRange,
    WindowTooShort,
)
from .fracop import frac_lap_g, frac_lap_spectral, kappa_limit, lattice_k2
from .kernels import HGSpec, KernelSpec, hg_limit_b1
from .solver import _energy_constants, run

# not called here; kept so that perfbench/tracing.py can still wrap these names
from .solver import energy_functionals, strang_step_energy  # noqa: F401

REPORT_HEADER = "kind,label,parameter,value,exponent,residual,passed"

#: interval energy residuals may dip below zero only by this relative amount
RESIDUAL_FLOOR = -1e-6


# ---------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class FitResult:
    """A fitted exponent and the rms log-log residual of its fit."""

    label: str
    exponent: float
    residual: float


@dataclass(frozen=True)
class CheckResult:
    """A measured value gated against a declared threshold."""

    label: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class StudyReport:
    """Ladder, measurements, fits, and pass/fail gates of one study."""

    name: str
    ladder: tuple
    values: tuple
    fits: tuple
    checks: tuple
    notes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ladder", tuple(float(x) for x in self.ladder))
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        object.__setattr__(self, "fits", tuple(self.fits))
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "notes", tuple(self.notes))
        if len(self.ladder) < 3:
            raise ParameterOutOfRange(
                f"study ladder needs >= 3 points, got {len(self.ladder)}"
            )
        if len(self.values) != len(self.ladder):
            raise ParameterOutOfRange("one measured value per ladder point")

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def _fmt(x):
    return "%.17g" % float(x)


def write_report(report, outdir):
    """Emit `<name>.report.csv` and `<name>.report.txt`; returns both paths."""
    csv_path = os.path.join(outdir, f"{report.name}.report.csv")
    txt_path = os.path.join(outdir, f"{report.name}.report.txt")
    lines = [REPORT_HEADER]
    for p, v in zip(report.ladder, report.values):
        lines.append(f"point,,{_fmt(p)},{_fmt(v)},,,")
    for f in report.fits:
        lines.append(f"fit,{f.label},,,{_fmt(f.exponent)},{_fmt(f.residual)},")
    for c in report.checks:
        lines.append(
            f"check,{c.label},{_fmt(c.threshold)},{_fmt(c.value)},,,{int(c.passed)}"
        )
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    txt = [f"study: {report.name}", f"result: {'PASS' if report.passed else 'FAIL'}"]
    txt.append("points:")
    for p, v in zip(report.ladder, report.values):
        txt.append(f"  {_fmt(p)} -> {_fmt(v)}")
    if report.fits:
        txt.append("fits:")
        for f in report.fits:
            txt.append(
                f"  {f.label}: exponent={_fmt(f.exponent)} residual={_fmt(f.residual)}"
            )
    if report.checks:
        txt.append("checks:")
        for c in report.checks:
            tag = "ok  " if c.passed else "FAIL"
            txt.append(
                f"  [{tag}] {c.label}: value={_fmt(c.value)} threshold={_fmt(c.threshold)}"
            )
    for note in report.notes:
        txt.append(f"note: {note}")
    with open(txt_path, "w") as fh:
        fh.write("\n".join(txt) + "\n")
    return csv_path, txt_path


def read_report(csv_path):
    """Parse a `<name>.report.csv` back into a StudyReport (notes live in the txt)."""
    name = os.path.basename(csv_path)
    if not name.endswith(".report.csv"):
        raise ParameterOutOfRange(f"not a report file: {csv_path}")
    name = name[: -len(".report.csv")]
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise ParameterOutOfRange(f"bad report header in {csv_path}")
    ladder, values, fits, checks = [], [], [], []
    for line in lines[1:]:
        kind, label, parameter, value, exponent, residual, passed = line.split(",")
        if kind == "point":
            ladder.append(float(parameter))
            values.append(float(value))
        elif kind == "fit":
            fits.append(FitResult(label, float(exponent), float(residual)))
        elif kind == "check":
            checks.append(
                CheckResult(label, float(value), float(parameter), passed == "1")
            )
        else:
            raise ParameterOutOfRange(f"unknown report row kind {kind!r}")
    return StudyReport(name, tuple(ladder), tuple(values), tuple(fits), tuple(checks))


def fit_rate(xs, ys):
    """
    Least-squares power law y ~ C x^p in log-log coordinates.
    Returns (p, C, rms log residual); needs >= 3 strictly positive points.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3 or len(xs) != len(ys):
        raise ParameterOutOfRange("rate fit needs >= 3 aligned points")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ParameterOutOfRange("rate fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    p, c = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (p * lx + c)) ** 2)))
    return float(p), float(np.exp(c)), resid


# ---------------------------------------------------------------------------
# averaged density


def rho(u):
    """Angular average of a phase field: quadrature over the sphere at each x."""
    return u.values @ u.angular.weights


def regularity_exponent(d, s, delta=0.5):
    """
    The averaged-density smoothing exponent beta = 2q / (5q - (1 - delta))
    with the moment exponent q = 2 / (1 - s).  The formula is the d = 3 one;
    d = 2 reuses it (callers flag that as extrapolated).
    """
    if d not in (2, 3):
        raise ParameterOutOfRange(f"need d in {{2, 3}}, got {d}")
    if not 0.0 < s < 1.0:
        raise ParameterOutOfRange(f"need 0 < s < 1, got {s}")
    if not 0.0 < delta < 1.0:
        raise ParameterOutOfRange(f"need 0 < delta < 1, got {delta}")
    q = 2.0 / (1.0 - s)
    return 2.0 * q / (5.0 * q - (1.0 - delta))


def _hbeta_seminorm_sq(snap, beta):
    """||rho||^2 in the homogeneous H^beta multiplier sense, |k|^{2 beta}."""
    g = snap.spatial
    mult = lattice_k2(g.wavenumbers(), g.d) ** beta
    spec = np.fft.fftn(rho(snap))
    npts = g.m**g.d
    return float(g.cell_volume() / npts * np.sum(mult * np.abs(spec) ** 2))


def rho_regularity_study(cfg, u0, delta=0.5):
    """
    Track the H^beta seminorm of rho along a run and report its time integral.
    The bound being probed is qualitative; the gates here are finiteness and
    bookkeeping, not a constant.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    every = max(1, n_steps // 8)
    snaps, _ = run(replace(cfg, snapshot_every=every), u0)
    beta = regularity_exponent(u0.spatial.d, cfg.kernel.base.s, delta)
    times = tuple(snap.time for snap in snaps)
    vals = tuple(_hbeta_seminorm_sq(snap, beta) for snap in snaps)
    total = float(np.trapezoid(vals, times))
    checks = (
        CheckResult("finite_time_integral", total, float("inf"), np.isfinite(total)),
        CheckResult(
            "seminorm_finite_at_every_time",
            float(np.max(vals)),
            float("inf"),
            bool(np.all(np.isfinite(vals))),
        ),
    )
    fits = (FitResult("regularity_exponent_formula", beta, 0.0),)
    notes = [
        "the exponent row is a formula evaluation, not a fit; its residual is 0",
        "multiplier convention: |k|^{2 beta} on the density spectrum",
    ]
    if u0.spatial.d == 2:
        notes.append("d=2 reuses the d=3 moment formula: exponent is extrapolated")
    return StudyReport("rho-regularity", times, vals, fits, checks, tuple(notes))


# ---------------------------------------------------------------------------
# kernel-family convergence


def _final_state(cfg, u0):
    n_steps = int(round(cfg.t_end / cfg.dt))
    c = replace(cfg, snapshot_every=n_steps, diagnostics_every=n_steps)
    snaps, _ = run(c, u0)
    return snaps[-1]


def _validate_g_ladder(g_ladder):
    g_ladder = tuple(float(g) for g in g_ladder)
    if len(g_ladder) < 3:
        raise ParameterOutOfRange(f"g ladder needs >= 3 points, got {len(g_ladder)}")
    if any(not 0.0 < g < 1.0 for g in g_ladder):
        raise ParameterOutOfRange("g ladder must lie inside (0, 1)")
    if any(b <= a for a, b in zip(g_ladder, g_ladder[1:])):
        raise ParameterOutOfRange("g ladder must increase strictly toward 1")
    return g_ladder


def hg_convergence_study(cfg, u0, g_ladder, threads=1):
    """
    March the same initial data under the bounded-kernel family and under its
    g -> 1 limit, and measure e(g) = ||u^g(t_end) - u(t_end)||_{L2} over
    phase space.  The family is insensitive to the configured b1 (only alpha
    and the remainder enter), and its limit carries the strength
    hg_limit_b1(d, s); the reference run uses that strength so that e(g) can
    actually vanish.  The solutions here are smooth, so the strong-L2
    difference is a stronger probe than the weak convergence it checks.
    Raises NonMonotoneConvergence when e(g) fails to decrease along the
    ladder.
    """
    g_ladder = _validate_g_ladder(g_ladder)
    if isinstance(cfg.kernel, HGSpec):
        raise ParameterOutOfRange("cfg.kernel must be the limiting kernel spec")
    base = cfg.kernel
    limit = replace(base, b1=hg_limit_b1(base.d, base.s))
    ref = _final_state(replace(cfg, kernel=limit), u0)

    def one(g):
        return _final_state(replace(cfg, kernel=HGSpec(base=base, g=g)), u0)

    with ThreadPoolExecutor(max_workers=max(1, int(threads))) as ex:
        finals = list(ex.map(one, g_ladder))
    w = np.asarray(u0.angular.weights)
    vol = u0.spatial.cell_volume()
    errs = tuple(
        float(np.sqrt(vol * np.sum(((f.values - ref.values) ** 2) @ w)))
        for f in finals
    )
    if any(b >= a for a, b in zip(errs, errs[1:])):
        raise NonMonotoneConvergence(
            f"errors not strictly decreasing along g ladder: {errs}"
        )
    order, coef, resid = fit_rate([1.0 - g for g in g_ladder], errs)
    predicted_finest = coef * (1.0 - g_ladder[-1]) ** order
    ratio = predicted_finest / errs[-1]
    worst_step = max(b / a for a, b in zip(errs, errs[1:]))
    checks = (
        CheckResult("errors_strictly_decreasing", worst_step, 1.0, worst_step < 1.0),
        CheckResult("order_positive", order, 0.0, order > 0.0),
        CheckResult("loglog_fit_residual", resid, 0.1, resid < 0.1),
        CheckResult(
            "fit_consistent_at_finest", ratio, 2.0, 0.5 <= ratio <= 2.0
        ),
        CheckResult(
            "finest_at_most_half_of_coarsest",
            errs[-1] / errs[0],
            0.5,
            errs[-1] <= 0.5 * errs[0],
        ),
    )
    fits = (FitResult("l2_error_order_in_one_minus_g", order, resid),)
    notes = (
        "errors are strong phase-space L2 differences at t_end "
        "against the limiting-kernel run",
        f"reference kernel strength b1 = {limit.b1!r} (the family limit)",
    )
    return StudyReport("hg-convergence", g_ladder, errs, fits, checks, notes)


# ---------------------------------------------------------------------------
# operator-level rates


def operator_rate_study(psi, s, g_ladder, threads=1):
    """
    Sup-norm distance between the bounded-kernel operator applied to a
    compactly supported plane field and the limiting fractional Laplacian
    (times its family constant), over a g ladder; plus the far-field decay
    slope of the bounded-operator output, which must track <v>^{-(d-1+2s)}.
    """
    g_ladder = _validate_g_ladder(g_ladder)
    grid = psi.grid
    d = grid.d
    if not 0.0 < s < 1.0:
        raise ParameterOutOfRange(f"need 0 < s < 1, got {s}")
    peak = float(np.max(np.abs(psi.values)))
    if peak == 0.0:
        raise ParameterOutOfRange("psi must not vanish everywhere")
    inner = grid.interior_mask(0.5)
    # effective support: relative floor keeps analytically-nonvanishing probes usable
    support = np.abs(psi.values) > 1e-12 * peak
    if np.any(support & ~inner):
        raise ParameterOutOfRange("psi must be supported inside the interior half")
    ref = kappa_limit(d, s) * frac_lap_spectral(grid, psi.values, s)

    # the bounded operator is a dense sum with a per-target exterior tail, so
    # evaluate it only where the study looks: the interior half (sup error)
    # plus a thinned far-field ring (decay slope)
    br = grid.bracket()
    r_support = float(np.max(br[support]))
    lo, hi = 1.5 * r_support, 0.85 * grid.L
    if hi <= lo:
        raise ParameterOutOfRange("grid too small for a far-field window")
    ring = (br >= lo) & (br <= hi) & ~inner
    ring_idx = np.argwhere(ring)
    ring_r = br[ring]
    order = np.argsort(ring_r, kind="stable")
    if len(order) > 192:
        order = order[np.unique(np.linspace(0, len(order) - 1, 192).astype(int))]
    ring_idx, ring_r = ring_idx[order], ring_r[order]
    # sup on a strided sub-lattice of the interior half (the error fields are
    # smooth, so thinning moves the measured sup by O(h^2)); the lattice
    # includes the center node and is identical across the ladder
    stride = 1
    while (inner.sum() // stride**grid.ndim) > 1024:
        stride += 1
    sub = np.zeros_like(inner)
    sub[tuple(slice(None, None, stride) for _ in range(grid.ndim))] = True
    inner_eval = inner & sub
    inner_idx = np.argwhere(inner_eval)
    targets = [tuple(t) for t in np.vstack([inner_idx, ring_idx])]

    def one(g):
        hg = HGSpec(base=KernelSpec(d=d, s=s, b1=1.0), g=g)
        return frac_lap_g(grid, psi.values, hg, targets=targets)

    with ThreadPoolExecutor(max_workers=max(1, int(threads))) as ex:
        outs = list(ex.map(one, g_ladder))
    n_in = len(inner_idx)
    ref_in = ref[inner_eval]
    errs = tuple(float(np.max(np.abs(o[:n_in] - ref_in))) for o in outs)
    worst_step = max(b / a for a, b in zip(errs, errs[1:]))
    beta, _, resid = fit_rate([1.0 - g for g in g_ladder], errs)

    # far-field slope of the finest-g output, shell means over log-spaced bins
    edges = np.geomspace(lo, hi, 9)
    tail = np.abs(outs[-1][n_in:])
    radii, means = [], []
    for a, b in zip(edges, edges[1:]):
        sel = (ring_r >= a) & (ring_r < b)
        if np.any(sel):
            radii.append(float(np.sqrt(a * b)))
            means.append(float(np.mean(tail[sel])))
    slope, _, slope_resid = fit_rate(radii, means)
    target = -(d - 1.0 + 2.0 * s)
    slope_dev = abs(slope - target) / abs(target)
    checks = (
        CheckResult("errors_strictly_decreasing", worst_step, 1.0, worst_step < 1.0),
        CheckResult("rate_positive", beta, 0.0, beta > 0.0),
        CheckResult("tail_slope_within_10pct", slope_dev, 0.1, slope_dev <= 0.1),
    )
    fits = (
        FitResult("sup_error_order_in_one_minus_g", beta, resid),
        FitResult("far_field_decay_slope", slope, slope_resid),
    )
    notes = (
        "the spectral reference is scaled by the family limit constant "
        "2^{2-d-2s}/c_{d-1,s} of the bounded-kernel operators",
    )
    return StudyReport("operator-rate", g_ladder, errs, fits, checks, notes)


# ---------------------------------------------------------------------------
# level-set energies


def level_set_energy_check(cfg, u0, lambdas):
    """
    For each level height lambda, verify the truncated-energy inequality on
    every diagnostic interval of a run: the interval residual

        0.5 ||u_lam(t')||^2 + D1 int ||u_lam||^2 - 0.5 ||u_lam(t)||^2
          - D0 int ||u_lam||^2_{Hs}

    must not drop below -1e-6 times the interval-start norm.  The check
    observes one `run` step by step.  lambda = 0 accumulates the per-step
    closed forms the marcher reports (so it must reproduce the marcher's own
    residual stream exactly); positive lambdas use endpoint-trapezoid time
    quadrature of the truncated functionals.
    """
    lambdas = tuple(float(l) for l in lambdas)
    if len(lambdas) < 3:
        raise ParameterOutOfRange(f"lambda ladder needs >= 3 points, got {len(lambdas)}")
    if not np.all(np.isfinite(lambdas)):
        raise ParameterOutOfRange(f"lambda ladder must be finite, got {lambdas}")
    if any(l < 0.0 for l in lambdas):
        raise ParameterOutOfRange("lambda ladder must be nonnegative")
    if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
        raise ParameterOutOfRange("lambda ladder must increase strictly")
    D0, D1, _ = _energy_constants(cfg.kernel)
    n_steps = int(round(cfg.t_end / cfg.dt))
    positives = [l for l in lambdas if l > 0.0]
    # lambda = 0: marcher-style accumulation; lambda > 0: trapezoid endpoints
    step = -1
    l2_emit0 = win_l20 = win_hs0 = 0.0
    zero_residuals = []
    state = {}
    worst = {lam: np.inf for lam in lambdas}

    def observe(u, dl2, dhs, functionals):
        nonlocal step, l2_emit0, win_l20, win_hs0
        step += 1
        if step == 0:
            l2_emit0 = u.l2() ** 2
            for lam in positives:
                f = functionals(np.maximum(u.values - lam, 0.0))
                state[lam] = {"prev": f, "emit": f[0], "win_l2": 0.0, "win_hs": 0.0}
            return
        win_l20 += dl2
        win_hs0 += dhs
        for lam in positives:
            st = state[lam]
            f = functionals(np.maximum(u.values - lam, 0.0))
            st["win_l2"] += 0.5 * cfg.dt * (st["prev"][0] + f[0])
            st["win_hs"] += 0.5 * cfg.dt * (st["prev"][1] + f[1])
            st["prev"] = f
        if not (step % cfg.diagnostics_every == 0 or step == n_steps):
            return
        l2_now0 = u.l2() ** 2
        res0 = 0.5 * l2_emit0 + D1 * win_l20 - 0.5 * l2_now0 - D0 * win_hs0
        zero_residuals.append(res0)
        if 0.0 in lambdas:
            denom = l2_emit0 if l2_emit0 > 0.0 else 1.0
            worst[0.0] = min(worst[0.0], res0 / denom)
        l2_emit0 = l2_now0
        win_l20 = 0.0
        win_hs0 = 0.0
        for lam in positives:
            st = state[lam]
            res = (
                0.5 * st["emit"]
                + D1 * st["win_l2"]
                - 0.5 * st["prev"][0]
                - D0 * st["win_hs"]
            )
            denom = st["emit"] if st["emit"] > 0.0 else 1.0
            worst[lam] = min(worst[lam], res / denom)
            st["emit"] = st["prev"][0]
            st["win_l2"] = 0.0
            st["win_hs"] = 0.0

    _, records = run(replace(cfg, snapshot_every=0), u0, observe)
    # one observed window per diagnostics row after the first, or no match
    rows = records[1:]
    zero_dev = (
        max(abs(r - rec.energy_residual) for r, rec in zip(zero_residuals, rows))
        if len(zero_residuals) == len(rows)
        else np.inf
    )
    values = tuple(worst[lam] for lam in lambdas)
    checks = [
        CheckResult(
            f"residual_floor_lambda_{i}",
            worst[lam],
            RESIDUAL_FLOOR,
            worst[lam] >= RESIDUAL_FLOOR,
        )
        for i, lam in enumerate(lambdas)
    ]
    if 0.0 in lambdas:
        checks.append(
            CheckResult(
                "matches_marcher_at_lambda_zero",
                zero_dev,
                1e-12,
                zero_dev <= 1e-12,
            )
        )
    notes = (
        "values are the worst interval residuals scaled by the interval-start "
        "truncated norm",
        "lambda = 0 replays the marcher's closed-form accumulation; positive "
        "lambdas use endpoint-trapezoid quadrature",
    )
    return StudyReport(
        "level-set", lambdas, values, (), tuple(checks), notes
    )


# ---------------------------------------------------------------------------
# sup-norm decay


def decay_study(cfg, u0, n_ladder=12, transient_fraction=0.2):
    """
    March compactly concentrated data in a box large enough that nothing
    reaches the boundary (X >= 2 (1 + t_end), unit speeds), record the
    sup norm on a log-spaced time ladder past an initial transient, require
    it nonincreasing there, and fit the algebraic decay exponent over the
    latter half of the window (one-sided gate a >= 0.4).
    """
    if n_ladder < 5:
        raise ParameterOutOfRange(f"need n_ladder >= 5 for the fit, got {n_ladder}")
    if not 0.0 <= transient_fraction < 1.0:
        raise ParameterOutOfRange(
            f"need 0 <= transient_fraction < 1, got {transient_fraction}"
        )
    if u0.spatial.X < 2.0 * (1.0 + cfg.t_end):
        raise ParameterOutOfRange(
            f"box {u0.spatial.X} too small for t_end {cfg.t_end}: "
            "need X >= 2 (1 + t_end)"
        )
    _, records = run(replace(cfg, diagnostics_every=1, snapshot_every=0), u0)
    times = np.array([r.time for r in records])
    linf = np.array([r.linf for r in records])
    t_start = max(transient_fraction * cfg.t_end, times[1])
    targets = np.geomspace(t_start, cfg.t_end, n_ladder)
    idx = np.unique(np.searchsorted(times, targets).clip(0, len(times) - 1))
    if len(idx) < 5:
        raise WindowTooShort(
            f"only {len(idx)} ladder points past the transient; need >= 5"
        )
    lt, lv = times[idx], linf[idx]
    rises = np.diff(lv)
    worst_rise = float(np.max(rises) / lv[0])
    half = len(idx) // 2
    a_fit, _, resid = fit_rate(lt[half:], lv[half:])
    a = -a_fit
    checks = (
        CheckResult(
            "sup_norm_nonincreasing", worst_rise, 1e-12, worst_rise <= 1e-12
        ),
        CheckResult("decay_exponent_at_least", a, 0.4, a >= 0.4),
    )
    fits = (FitResult("sup_norm_decay_exponent", a, resid),)
    notes = (
        "exponent fitted over the latter half of the post-transient ladder",
    )
    return StudyReport("decay", tuple(lt), tuple(lv), fits, checks, notes)
