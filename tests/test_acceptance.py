"""
Acceptance gates for the whole stack, one test per criterion.

Each test prints a single "criterion NN: PASS/FAIL ..." line with the
measured numbers, then asserts.  Gates with a runtime budget time their own
core work.  Criteria 5, 6 and 11 share one module-scope reference march
(d=2, 64^2 cells, 128 angular nodes, dt=0.01 out to t=2) so the expensive
run happens once.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.special import eval_legendre, lpmv

from prte import geom, solver
from prte.errors import BoundaryLeakage
from prte.experiments import (
    decay_study,
    hg_convergence_study,
    level_set_energy_check,
    operator_rate_study,
    write_report,
)
from prte.fracop import PlaneField, PlaneGrid, bessel_identity_residual
from prte.kernels import KernelSpec, limiting_kernel
from prte.scatter import (
    AngularSpectrum,
    analyze,
    apply_I_h,
    apply_scatter_projected,
    apply_scatter_spectral,
    apply_scatter_weak,
    funk_hecke_eigs,
    mode_count,
    plane_directions,
    sphere_integral_projected,
    sphere_quadrature,
    synthesize,
    weak_pairing,
)
from prte.solver import (
    SolverConfig,
    SpatialGrid,
    make_initial,
    run,
    write_diagnostics,
)

SPEC2 = KernelSpec(d=2, s=0.25, b1=1.0)
KSPEC2 = KernelSpec(d=2, s=0.25, b1=2.0**0.75)
KSPEC3 = KernelSpec(d=3, s=0.5, b1=2.0**-0.5)

# projected-route fields carry slow power tails by construction; the gates
# below measure exactly the truncation level the heads-up warns about
pytestmark = pytest.mark.filterwarnings("ignore::prte.errors.BoundaryLeakage")


def _gate(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def pole_vanishing_mode(d, l, dirs):
    """Degree-l harmonic vanishing at the projection pole (see scatter tests)."""
    dirs = np.asarray(dirs, dtype=float)
    if d == 2:
        phi = np.arctan2(dirs[..., 1], dirs[..., 0])
        return np.sin(l * (phi - np.pi / 2.0)) / np.sqrt(np.pi)
    ct = np.clip(dirs[..., 2], -1.0, 1.0)
    az = np.arctan2(dirs[..., 1], dirs[..., 0])
    c = np.sqrt(2.0) * np.sqrt((2 * l + 1) / (4.0 * np.pi) / (l * (l + 1)))
    return c * lpmv(1, l, ct) * np.sin(az)


def random_band_limited(quad_or_dirs, d, lmax, rng):
    nodes = getattr(quad_or_dirs, "nodes", quad_or_dirs)
    coeffs = rng.standard_normal(mode_count(d, lmax))
    return synthesize(AngularSpectrum(d, lmax, coeffs), nodes)


def cut_gaussian(grid, width=0.4, cut=3.0):
    """Compactly supported probe: Gaussian bump hard-cut at radius `cut`."""
    pts = grid.points()
    r2 = np.sum(pts * pts, axis=-1)
    vals = np.exp(-r2 / (2.0 * width**2))
    vals[np.sqrt(r2) > cut] = 0.0
    return PlaneField(grid, vals)


@pytest.fixture(scope="module")
def default_run():
    """The reference d=2 march shared by criteria 5, 6 and 11."""
    grid = SpatialGrid(2, 8.0, 64)
    ang = sphere_quadrature(2, 128)
    u0 = make_initial("gaussian-beam", grid, ang, sigma=1.0, sigma_theta=0.6)
    cfg = SolverConfig(
        kernel=SPEC2, dt=0.01, t_end=2.0, lmax=32, diagnostics_every=20
    )
    t0 = time.perf_counter()
    _, records = run(cfg, u0)
    return cfg, u0, records, time.perf_counter() - t0


def test_01_chord_identity():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3):
        v, vp = 3.0 * rng.standard_normal((2, 10_000, d - 1))
        lhs = geom.chord_gap(v, vp)
        rhs = 1.0 - np.sum(geom.unproject(v, d) * geom.unproject(vp, d), axis=-1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    dt = time.perf_counter() - t0
    _gate(
        1,
        worst <= 1e-12 and dt < 1.0,
        f"chord identity: max |plane - sphere| = {worst:.2e} <= 1e-12 "
        f"on 2x10^4 random pairs, d in (2, 3) ({dt:.2f}s < 1s)",
    )


def test_02_bessel_identity():
    t0 = time.perf_counter()
    r2 = bessel_identity_residual(PlaneGrid(2, 16.0, 512), 0.25)
    r3 = bessel_identity_residual(PlaneGrid(3, 12.0, 256), 0.5)
    dt = time.perf_counter() - t0
    _gate(
        2,
        r2 <= 1e-3 and r3 <= 1e-3 and dt < 30.0,
        f"Bessel probe identity: interior rel residual {r2:.2e} (d=2, s=1/4) "
        f"and {r3:.2e} (d=3, s=1/2), both <= 1e-3 ({dt:.1f}s < 30s)",
    )


def test_03_three_way_agreement():
    t0 = time.perf_counter()
    tab2 = funk_hecke_eigs(KSPEC2, 8)
    tab3 = funk_hecke_eigs(KSPEC3, 8)

    # eigenvalue tables vs an independent adaptive 1-D quadrature oracle
    worst_eig = 0.0
    for l in range(1, 9):
        ref, _ = scipy_quad(
            lambda p: limiting_kernel(KSPEC2, np.cos(p)) * (np.cos(l * p) - 1.0),
            0.0, 2.0 * np.pi, points=[0.0, 2.0 * np.pi], limit=200,
        )
        worst_eig = max(worst_eig, abs(tab2.lambdas[l] - ref) / abs(ref))
        ref, _ = scipy_quad(
            lambda z: limiting_kernel(KSPEC3, z) * (eval_legendre(l, z) - 1.0),
            -1.0, 1.0, points=[1.0], limit=200,
        )
        ref *= 2.0 * np.pi
        worst_eig = max(worst_eig, abs(tab3.lambdas[l] - ref) / abs(ref))

    # d=2: all three application forms against lambda_l u on each harmonic
    q2 = sphere_quadrature(2, 256)
    w2 = np.sqrt(q2.weights)
    g2 = PlaneGrid(2, 1024, 32768)
    dirs2 = plane_directions(g2)
    br2 = g2.bracket()
    mask2 = np.abs(g2.points()[:, 0]) <= 6.0
    worst_route = 0.0
    for l in range(1, 9):
        u = pole_vanishing_mode(2, l, q2.nodes)
        ref = tab2.lambdas[l] * u
        spec_out = synthesize(
            apply_scatter_spectral(analyze(q2, u, 8), tab2), q2.nodes
        )
        weak_out = apply_scatter_weak(q2, u, KSPEC2, lmax=8)
        for out in (spec_out, weak_out):
            rel = np.linalg.norm(w2 * (out - ref)) / np.linalg.norm(w2 * ref)
            worst_route = max(worst_route, rel)
        up = pole_vanishing_mode(2, l, dirs2)
        proj = apply_scatter_projected(PlaneField(g2, up), KSPEC2).values
        refp = tab2.lambdas[l] * up * br2**-1.0
        rel = np.linalg.norm((proj - refp)[mask2]) / np.linalg.norm(refp[mask2])
        worst_route = max(worst_route, rel)

    # d=3: spectral and projected forms; the weak form sits on its polar-mesh
    # cutoff floor at any quadrature the dense pairing matrix can afford (see
    # the scatter tests), so the 1% weak gate lives on the d=2 quadrature
    # where every rung of the eps ladder is resolved
    q3 = sphere_quadrature(3, 48)
    w3 = np.sqrt(q3.weights)
    g3 = PlaneGrid(3, 64, 1024)
    dirs3 = plane_directions(g3)
    br3 = g3.bracket()
    mask3 = np.sqrt(np.sum(g3.points() ** 2, axis=-1)) <= 6.0
    for l in range(1, 9):
        u = pole_vanishing_mode(3, l, q3.nodes)
        ref = tab3.lambdas[l] * u
        spec_out = synthesize(
            apply_scatter_spectral(analyze(q3, u, 8), tab3), q3.nodes
        )
        rel = np.linalg.norm(w3 * (spec_out - ref)) / np.linalg.norm(w3 * ref)
        worst_route = max(worst_route, rel)
        up = pole_vanishing_mode(3, l, dirs3)
        proj = apply_scatter_projected(PlaneField(g3, up), KSPEC3).values
        refp = tab3.lambdas[l] * up * br3**-2.0
        rel = np.linalg.norm((proj - refp)[mask3]) / np.linalg.norm(refp[mask3])
        worst_route = max(worst_route, rel)

    dt = time.perf_counter() - t0
    _gate(
        3,
        worst_eig <= 1e-6 and worst_route <= 1e-2 and dt < 60.0,
        f"three-way operator agreement: worst route rel error {worst_route:.2e} "
        f"<= 1e-2 on harmonics l <= 8, eigenvalue oracle rel {worst_eig:.2e} "
        f"<= 1e-6 ({dt:.1f}s < 60s)",
    )


def test_04_dissipative_and_mass_neutral():
    rng = np.random.default_rng(11)
    q = sphere_quadrature(2, 64)
    tab = funk_hecke_eigs(KSPEC2, 8)
    grid = PlaneGrid(2, 1024, 32768)
    dirs = plane_directions(grid)
    worst_pair, worst_mass = -np.inf, 0.0
    for _ in range(100):
        u = random_band_limited(q, 2, 8, rng)
        iu_s = synthesize(apply_scatter_spectral(analyze(q, u, 8), tab), q.nodes)
        iu_w = apply_scatter_weak(q, u, KSPEC2, lmax=8)
        worst_pair = max(worst_pair, float(np.sum(q.weights * u * iu_s)))
        worst_pair = max(worst_pair, weak_pairing(q, u, u, KSPEC2, 1e-3))
        l1 = float(np.sum(q.weights * np.abs(u)))
        for iu in (iu_s, iu_w):
            worst_mass = max(
                worst_mass, abs(float(np.sum(q.weights * iu))) / l1
            )
        up = random_band_limited(dirs, 2, 8, rng)
        out = apply_scatter_projected(PlaneField(grid, up), KSPEC2).values
        worst_pair = max(
            worst_pair, sphere_integral_projected(PlaneField(grid, out * up))
        )
        l1p = sphere_integral_projected(PlaneField(grid, np.abs(up)))
        worst_mass = max(
            worst_mass,
            abs(sphere_integral_projected(PlaneField(grid, out))) / l1p,
        )
    _gate(
        4,
        worst_pair <= 0.0 and worst_mass <= 1e-8,
        f"dissipativity and mass neutrality on 100 random band-limited fields, "
        f"spectral/projected/weak forms: worst <I(u),u> = {worst_pair:+.2e} "
        f"<= 0, worst |mass(I(u))|/||u||_1 = {worst_mass:.2e} <= 1e-8",
    )


def test_05_mass_and_l2_on_default_run(default_run):
    cfg, _, records, elapsed = default_run
    mass = np.array([r.mass for r in records])
    l2 = np.array([r.l2 for r in records])
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    # records land every diagnostics_every steps; the per-step allowance
    # accumulates over the interval
    allowed = 1e-10 * cfg.diagnostics_every * l2[0]
    rise = float(np.max(np.diff(l2)))
    _gate(
        5,
        drift <= 1e-8 and rise <= allowed and elapsed < 300.0,
        f"default d=2 run: mass drift {drift:.2e} <= 1e-8, max L2 rise per "
        f"record {rise:+.2e} within 1e-10/step ({elapsed:.0f}s < 300s)",
    )


def test_06_interval_energy_residuals(default_run):
    _, _, records, _ = default_run
    l2 = np.array([r.l2 for r in records])
    res = np.array([r.energy_residual for r in records])
    floor = float(np.min(res[1:] / l2[:-1] ** 2))
    _gate(
        6,
        floor >= -1e-6,
        f"interval energy residuals on the default run: min residual / "
        f"||u(t')||^2 = {floor:+.2e} >= -1e-6 over {len(res) - 1} intervals",
    )


def test_07_strang_order_two():
    grid = SpatialGrid(2, 8.0, 32)
    ang = sphere_quadrature(2, 64)
    u0 = make_initial("gaussian-beam", grid, ang, sigma=1.0, sigma_theta=0.6)
    t_end = 0.5

    def final(dt):
        cfg = SolverConfig(
            kernel=SPEC2, dt=dt, t_end=t_end, lmax=32,
            snapshot_every=int(round(t_end / dt)), diagnostics_every=10**9,
        )
        snaps, _ = run(cfg, u0)
        return snaps[-1].values

    ref = final(t_end / 256)
    errs = [
        np.linalg.norm(final(dt) - ref) / np.linalg.norm(ref)
        for dt in (0.05, 0.025, 0.0125)
    ]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = all(1.8 <= p <= 2.2 for p in orders)
    _gate(
        7,
        ok,
        f"Strang self-convergence: observed orders "
        f"{', '.join(f'{p:.3f}' for p in orders)} in 2.0 +/- 0.2 "
        f"across dt halvings",
    )


def test_08_bounded_part_l2_bound():
    spec = KernelSpec(d=3, s=0.5, b1=1.0, h=lambda z: (1.0 + z) ** 2)
    q = sphere_quadrature(3, 16)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        u = random_band_limited(q, 3, 6, rng)
        out = apply_I_h(q, u, spec)  # raises InvariantViolation on breach
        nu = np.sqrt(np.sum(q.weights * u**2))
        worst = max(worst, float(np.sqrt(np.sum(q.weights * out**2)) / nu))
    _gate(
        8,
        worst <= 2.0 * spec.h_l1,
        f"bounded-part L2 bound: worst ||I_h(u)||/||u|| = {worst:.3f} <= "
        f"2 h_l1 = {2.0 * spec.h_l1:.3f} on 100 random fields",
    )


def test_09_hg_operator_rate():
    t0 = time.perf_counter()
    psi = cut_gaussian(PlaneGrid(2, 16, 512))
    report = operator_rate_study(psi, 0.25, (0.9, 0.95, 0.975, 0.99))
    dt = time.perf_counter() - t0
    beta = report.fits[0].exponent
    slope = report.fits[1].exponent
    _gate(
        9,
        report.passed and abs(slope + 1.5) <= 0.15 and dt < 120.0,
        f"HG operator rate: sup errors {report.values[0]:.2e} -> "
        f"{report.values[-1]:.2e} strictly decreasing over g in (0.9..0.99), "
        f"beta = {beta:.3f} > 0, tail slope {slope:.4f} within 10% of -1.5 "
        f"({dt:.1f}s < 120s)",
    )


def test_10_hg_solution_convergence():
    grid = SpatialGrid(2, 8.0, 32)
    ang = sphere_quadrature(2, 64)
    u0 = make_initial("gaussian-beam", grid, ang, sigma=1.0, sigma_theta=0.6)
    cfg = SolverConfig(kernel=SPEC2, dt=0.02, t_end=1.0, lmax=32)
    t0 = time.perf_counter()
    report = hg_convergence_study(cfg, u0, (0.8, 0.9, 0.95, 0.975))
    dt = time.perf_counter() - t0
    order = report.fits[0].exponent
    ratio = report.values[-1] / report.values[0]
    _gate(
        10,
        report.passed and order > 0.0 and ratio <= 0.5 and dt < 900.0,
        f"HG solution convergence: L2 errors {report.values[0]:.2e} -> "
        f"{report.values[-1]:.2e}, fitted order {order:.3f} > 0, finest/"
        f"coarsest = {ratio:.3f} <= 0.5 ({dt:.0f}s < 900s)",
    )


def test_11_level_set_energy(default_run):
    cfg, u0, _, _ = default_run
    lams = np.array([0.0, 0.25, 0.5]) * float(np.max(u0.values))
    report = level_set_energy_check(cfg, u0, lams)
    by_label = {c.label: c for c in report.checks}
    floors = [
        by_label[f"residual_floor_lambda_{i}"].value for i in range(len(lams))
    ]
    zero_dev = by_label["matches_marcher_at_lambda_zero"].value
    _gate(
        11,
        report.passed and min(floors) >= -1e-6 and zero_dev <= 1e-12,
        f"level-set energy: worst scaled residual {min(floors):+.2e} >= -1e-6 "
        f"for lambda in (0, 1/4, 1/2) max u(0); lambda=0 matches the marcher "
        f"residual to {zero_dev:.1e} <= 1e-12",
    )


def test_12_sup_norm_decay():
    grid = SpatialGrid(2, 16.0, 64)
    ang = sphere_quadrature(2, 128)
    u0 = make_initial("isotropic-blob", grid, ang, sigma=0.5)
    cfg = SolverConfig(kernel=SPEC2, dt=0.02, t_end=6.0, lmax=32)
    t0 = time.perf_counter()
    report = decay_study(cfg, u0)
    dt = time.perf_counter() - t0
    a = report.fits[0].exponent
    mono = {c.label: c.passed for c in report.checks}["sup_norm_nonincreasing"]
    _gate(
        12,
        report.passed and mono and a >= 0.4 and dt < 1200.0,
        f"sup-norm decay: nonincreasing post-transient, fitted exponent "
        f"a = {a:.3f} >= 0.4 over the boundary-clean window ({dt:.0f}s < 1200s)",
    )


def test_13_determinism(tmp_path, monkeypatch):
    grid = SpatialGrid(2, 8.0, 32)
    ang = sphere_quadrature(2, 64)
    u0 = make_initial("gaussian-beam", grid, ang, sigma=1.0, sigma_theta=0.6)
    cfg = SolverConfig(kernel=SPEC2, dt=0.02, t_end=0.5, lmax=32)
    blobs = []
    for workers in (1, 3):
        # the ladder's worker count is the CPUs the process may use
        monkeypatch.setattr(solver, "_cpus", lambda: workers)
        report = hg_convergence_study(cfg, u0, (0.8, 0.9, 0.95))
        out = tmp_path / f"t{workers}"
        out.mkdir()
        write_report(report, out)
        blobs.append((out / "hg-convergence.report.csv").read_bytes())
    diag = []
    for rep in (1, 2):
        _, records = run(cfg, u0)
        path = tmp_path / f"diag{rep}.csv"
        write_diagnostics(records, path)
        diag.append(path.read_bytes())
    _gate(
        13,
        blobs[0] == blobs[1] and diag[0] == diag[1],
        f"determinism: study report CSV byte-identical across 1 vs 3 worker "
        f"threads ({len(blobs[0])} bytes) and diagnostics CSV byte-identical "
        f"across repeated runs ({len(diag[0])} bytes)",
    )
