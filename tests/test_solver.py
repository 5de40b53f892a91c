"""
Strang-split phase-space marches.

Transport is checked against exact translation, scattering against per-mode
exponential decay, the composed step against its own pieces (x-uniform data,
null kernel), and full runs against the invariants the marcher enforces:
mass conservation, per-step L2 monotonicity, nonnegative interval energy
residuals, and positivity.  The two scattering backends are compared on a
common run, and the snapshot/diagnostics formats are pinned byte-for-byte.
"""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prte import solver
from prte.errors import (
    InvariantViolation,
    ParameterOutOfRange,
    StabilityViolation,
    UnknownKind,
)
from prte.fracop import PlaneGrid
from prte.kernels import HGSpec, KernelSpec
from prte.scatter import (
    basis_at_directions,
    funk_hecke_eigs,
    sectoral_harmonic,
    sphere_quadrature,
)
from prte.solver import (
    DIAGNOSTICS_HEADER,
    SNAPSHOT_HEADER_BYTES,
    PhaseField,
    ProjectedAngularGrid,
    SolverConfig,
    SpatialGrid,
    _engine_for,
    beam_angular_mass,
    make_initial,
    read_snapshot,
    run,
    strang_step_energy,
    transport_step,
    write_diagnostics,
    write_snapshot,
)

SPEC2 = KernelSpec(d=2, s=0.25, b1=1.0)
SPEC3 = KernelSpec(d=3, s=0.5, b1=2.0**-0.5)


@pytest.fixture(scope="module")
def grid2():
    return SpatialGrid(2, 8.0, 32)


@pytest.fixture(scope="module")
def ang2():
    return sphere_quadrature(2, 64)


@pytest.fixture(scope="module")
def grid3():
    return SpatialGrid(3, 8.0, 8)


@pytest.fixture(scope="module")
def ang3():
    return sphere_quadrature(3, 16)


def x_uniform(grid, node_values):
    """Broadcast one angular profile over every spatial cell."""
    vals = np.broadcast_to(node_values, grid.shape + node_values.shape).copy()
    return vals


class TestSpatialGrid:
    """Periodic box bookkeeping."""

    def test_wavenumbers_and_volume(self, grid2):
        k = grid2.wavenumbers()
        assert k[0] == 0.0
        assert k[1] == pytest.approx(2.0 * np.pi / grid2.X, rel=1e-14)
        assert grid2.cell_volume() == pytest.approx((8.0 / 32) ** 2, rel=1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterOutOfRange):
            SpatialGrid(2, 8.0, 48)  # not a power of two
        with pytest.raises(ParameterOutOfRange):
            SpatialGrid(4, 8.0, 32)
        with pytest.raises(ParameterOutOfRange):
            SpatialGrid(2, 0.0, 32)


class TestPhaseField:
    """Phase-space container invariants."""

    def test_shape_mismatch_rejected(self, grid2, ang2):
        with pytest.raises(ParameterOutOfRange):
            PhaseField(grid2, ang2, np.zeros(grid2.shape + (7,)))

    def test_nonfinite_rejected(self, grid2, ang2):
        bad = np.ones(grid2.shape + (64,))
        bad[0, 0, 0] = np.nan
        with pytest.raises(InvariantViolation):
            PhaseField(grid2, ang2, bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0, 0), (31, 31, 63), (5, 17, 40)])
    def test_each_nonfinite_value_rejected(self, grid2, ang2, value, where):
        bad = np.random.default_rng(3).random(grid2.shape + (64,))
        bad[where] = value
        with pytest.raises(InvariantViolation):
            PhaseField(grid2, ang2, bad)

    def test_finiteness_check_allocates_no_field(self, grid2, ang2):
        """Building a field checks finiteness without a field-sized
        temporary (numpy reports its data buffers to tracemalloc)."""
        vals = np.random.default_rng(4).random(grid2.shape + (64,))
        PhaseField(grid2, ang2, vals)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            PhaseField(grid2, ang2, vals)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < vals.nbytes / 8, f"{peak} bytes for a {vals.nbytes}-byte field"

    def test_mass_and_l2_formulas(self, grid2, ang2):
        rng = np.random.default_rng(7)
        vals = rng.random(grid2.shape + (64,))
        u = PhaseField(grid2, ang2, vals)
        vol = grid2.cell_volume()
        mass = vol * np.sum(vals @ ang2.weights)
        l2 = np.sqrt(vol * np.sum((vals**2) @ ang2.weights))
        assert u.mass() == pytest.approx(mass, rel=1e-13)
        assert u.l2() == pytest.approx(l2, rel=1e-13)

    def test_copy_is_independent(self, grid2, ang2):
        u = PhaseField(grid2, ang2, np.ones(grid2.shape + (64,)))
        v = u.copy()
        v.values[0, 0, 0] = 3.0
        assert u.values[0, 0, 0] == 1.0


class TestMakeInitial:
    """Initial data kinds and their closed-form masses."""

    def test_blob_mass_closed_form(self, grid2, ang2):
        u = make_initial("isotropic-blob", grid2, ang2, sigma=0.8)
        ref = 2.0 * np.pi * (2.0 * np.pi * 0.8**2)
        err = abs(u.mass() - ref) / ref
        assert err <= 1e-10, f"blob mass off by {err:.2e}"

    def test_beam_mass_closed_form(self, grid2, ang2, grid3, ang3):
        u = make_initial("gaussian-beam", grid2, ang2, sigma=1.0, sigma_theta=0.6)
        ref = (2.0 * np.pi * 1.0) * beam_angular_mass(2, 0.6)
        assert abs(u.mass() - ref) / ref <= 1e-12
        v = make_initial("gaussian-beam", grid3, ang3, sigma=1.0, sigma_theta=0.7)
        ref3 = (2.0 * np.pi) ** 1.5 * beam_angular_mass(3, 0.7)
        # polar Gauss-Legendre integrates exp(cos theta / s^2) to quadrature
        # accuracy, not exactly; 16 nodes leave ~1e-8
        assert abs(v.mass() - ref3) / ref3 <= 1e-6

    def test_harmonic_perturbation_nonnegative_same_mass(self, grid2, ang2):
        blob = make_initial("isotropic-blob", grid2, ang2, sigma=0.8)
        u = make_initial(
            "harmonic-perturbation", grid2, ang2, sigma=0.8, degree=1, contrast=0.5
        )
        assert u.min_value() >= 0.0
        # the perturbing harmonic integrates to zero over the sphere
        assert u.mass() == pytest.approx(blob.mass(), rel=1e-12)

    def test_harmonic_perturbation_d3(self, grid3, ang3):
        blob = make_initial("isotropic-blob", grid3, ang3, sigma=0.8)
        u = make_initial(
            "harmonic-perturbation", grid3, ang3, sigma=0.8, degree=2, contrast=0.5
        )
        assert u.min_value() >= 0.0
        assert u.mass() == pytest.approx(blob.mass(), rel=1e-10)

    def test_harmonic_column_d3(self, grid3, ang3):
        """At d = 3 the perturbation is column degree^2 of the harmonic
        basis; `sectoral_harmonic` computes it alone with the same bytes,
        also past the rule's lmax_cap()."""
        plane = ProjectedAngularGrid(PlaneGrid(3, 8.0, 32))
        for nodes in (ang3.nodes, plane.nodes):
            for degree in (0, 1, 2, 9, ang3.lmax_cap() + 5):
                want = basis_at_directions(3, nodes, degree)[:, degree**2]
                assert sectoral_harmonic(nodes, degree).tobytes() == want.tobytes()

    def test_harmonic_degree_d3_needs_no_basis(self):
        """Degree n // 2 on a 256^2 projected plane reads one column instead
        of building the (degree + 1)^2 columns (8.7 GB), and a degree whose
        column is 0 at every node (P_l^l underflowed) is out of range."""
        grid = SpatialGrid(3, 8.0, 2)
        plane = ProjectedAngularGrid(PlaneGrid(3, 16.0, 256))
        tracemalloc.start()
        try:
            u = make_initial("harmonic-perturbation", grid, plane, degree=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20, f"traced peak {peak / 2**20:.1f} MiB"
        assert np.all(np.isfinite(u.values))
        coarse = sphere_quadrature(3, 4)
        with pytest.raises(ParameterOutOfRange, match="degree 100000"):
            make_initial("harmonic-perturbation", grid, coarse, degree=100000)

    def test_rejects_bad_requests(self, grid2, ang2):
        with pytest.raises(UnknownKind):
            make_initial("square-wave", grid2, ang2)
        with pytest.raises(ParameterOutOfRange):
            make_initial("isotropic-blob", grid2, ang2, sigma=-1.0)
        with pytest.raises(ParameterOutOfRange):
            make_initial(
                "harmonic-perturbation", grid2, ang2, degree=1, contrast=1.5
            )


class TestTransport:
    """Spectral free streaming: exact translation per angular node."""

    def test_x_independent_data_unchanged(self, grid2, ang2):
        vals = x_uniform(grid2, 1.0 + 0.3 * ang2.nodes[:, 0])
        u = PhaseField(grid2, ang2, vals)
        out = transport_step(u, 0.37)
        dev = np.max(np.abs(out.values - vals))
        assert dev <= 1e-13, f"x-independent data moved by {dev:.2e}"
        assert out.time == pytest.approx(0.37)

    def test_single_mode_translation_oracle(self, grid2, ang2):
        dt = 0.23
        x1 = grid2.axis()[:, None]
        k = 2.0 * np.pi / grid2.X
        vals = np.ones(grid2.shape + (64,))
        vals *= 1.5 + np.cos(k * x1)[..., None]
        u = PhaseField(grid2, ang2, vals)
        out = transport_step(u, dt)
        shifted = 1.5 + np.cos(k * (x1[..., None] - ang2.nodes[:, 0] * dt))
        shifted = np.broadcast_to(shifted, grid2.shape + (64,))
        dev = np.max(np.abs(out.values - shifted))
        assert dev <= 1e-13, f"translated mode off by {dev:.2e}"

    def test_l2_preserved_band_limited(self, grid2, ang2):
        # random low-k content; the folded Nyquist bin is the one place the
        # translation phase is not unitary, so keep energy away from it
        rng = np.random.default_rng(3)
        x = grid2.axis()
        k = 2.0 * np.pi / grid2.X
        prof = np.zeros(grid2.shape)
        for _ in range(6):
            kx, ky = rng.integers(0, 5, size=2)
            prof += rng.normal() * np.cos(
                k * (kx * x[:, None] + ky * x[None, :]) + rng.uniform(0, 2 * np.pi)
            )
        vals = (3.0 + prof)[..., None] * (1.0 + 0.2 * ang2.nodes[:, 0])
        u = PhaseField(grid2, ang2, vals)
        out = transport_step(u, 0.8)
        assert out.l2() == pytest.approx(u.l2(), rel=1e-13)


def scatter_only(u, dt, cfg):
    """Scattering alone over dt: u's values as complex rows through the
    engine's one stepping entry at cell-volume weight, and the real part."""
    eng = _engine_for(replace(cfg, dt=dt, t_end=dt), u)
    z = u.values.astype(complex)
    eng.scatter_spectrum(z, u.spatial.cell_volume())
    return PhaseField(u.spatial, u.angular, z.real, u.time)


class TestScatteringStep:
    """Angular relaxation: eigenmode decay and per-cell mass."""

    def test_angularly_constant_unchanged(self, grid2, ang2):
        rng = np.random.default_rng(5)
        prof = rng.random(grid2.shape)
        u = PhaseField(grid2, ang2, np.repeat(prof[..., None], 64, axis=-1))
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.05, lmax=8)
        out = scatter_only(u, 0.05, cfg)
        dev = np.max(np.abs(out.values - u.values))
        assert dev <= 1e-14 * np.max(prof), f"isotropic data moved by {dev:.2e}"

    def test_eigenmode_decay_factor(self, grid2, ang2):
        tab = funk_hecke_eigs(SPEC2, 2)
        phi = np.arctan2(ang2.nodes[:, 1], ang2.nodes[:, 0])
        u = PhaseField(grid2, ang2, x_uniform(grid2, np.cos(phi)))
        dt = 0.04
        cfg = SolverConfig(kernel=SPEC2, dt=dt, t_end=dt, lmax=8)
        out = scatter_only(u, dt, cfg)
        expected = np.exp(tab.lambdas[1] * dt)
        ratio = out.values[0, 0] / u.values[0, 0]
        dev = np.max(np.abs(ratio - expected)) / expected
        assert dev <= 1e-12, f"l=1 decay factor off by {dev:.2e}"

    def test_eigenmode_decay_factor_d3(self, grid3, ang3):
        tab = funk_hecke_eigs(SPEC3, 4)
        col = basis_at_directions(3, ang3.nodes, 2)[:, 4]  # first l=2 column
        u = PhaseField(grid3, ang3, x_uniform(grid3, 2.0 + col))
        dt = 0.03
        cfg = SolverConfig(kernel=SPEC3, dt=dt, t_end=dt, lmax=8)
        out = scatter_only(u, dt, cfg)
        expected = 2.0 + col * np.exp(tab.lambdas[2] * dt)
        dev = np.max(np.abs(out.values[0, 0, 0] - expected))
        assert dev <= 1e-8, f"l=2 decay off by {dev:.2e}"

    def test_per_cell_mass_conserved(self, grid2, ang2):
        rng = np.random.default_rng(11)
        u = PhaseField(grid2, ang2, rng.random(grid2.shape + (64,)))
        cfg = SolverConfig(kernel=SPEC2, dt=0.1, t_end=0.1, lmax=16)
        out = scatter_only(u, 0.1, cfg)
        pre = u.values @ ang2.weights
        post = out.values @ ang2.weights
        drift = np.max(np.abs(post - pre)) / np.max(np.abs(pre))
        assert drift <= 1e-10, f"per-cell angular mass drifted {drift:.2e}"


class TestStrangStep:
    """Composition properties and the observed order of the splitting."""

    def test_x_uniform_reduces_to_scattering(self, grid2, ang2):
        phi = np.arctan2(ang2.nodes[:, 1], ang2.nodes[:, 0])
        u = PhaseField(grid2, ang2, x_uniform(grid2, 1.0 + 0.5 * np.cos(phi)))
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.05, lmax=8)
        a, _, _ = strang_step_energy(u, 0.05, cfg)
        b = scatter_only(u, 0.05, cfg)
        dev = np.max(np.abs(a.values - b.values))
        assert dev <= 1e-13, f"x-uniform strang differs from scattering: {dev:.2e}"

    def test_null_kernel_reduces_to_transport(self, grid2, ang2):
        rng = np.random.default_rng(13)
        u = PhaseField(grid2, ang2, rng.random(grid2.shape + (64,)))
        null = KernelSpec(d=2, s=0.25, b1=0.0)
        cfg = SolverConfig(kernel=null, dt=0.1, t_end=0.1, lmax=8)
        a, _, _ = strang_step_energy(u, 0.1, cfg)
        b = transport_step(transport_step(u, 0.05), 0.05)
        dev = np.max(np.abs(a.values - b.values))
        assert dev <= 1e-13, f"null-kernel strang differs from transport: {dev:.2e}"

    def test_observed_order_two(self, grid2, ang2):
        u0 = make_initial(
            "gaussian-beam", grid2, ang2, sigma=1.0, sigma_theta=0.6
        )
        t_end = 0.5

        def final(dt):
            cfg = SolverConfig(
                kernel=SPEC2, dt=dt, t_end=t_end, lmax=32,
                snapshot_every=int(round(t_end / dt)), diagnostics_every=10**9,
            )
            snaps, _ = run(cfg, u0)
            return snaps[-1].values

        ref = final(t_end / 256)
        dts = [0.05, 0.025, 0.0125]
        errs = [np.linalg.norm(final(dt) - ref) / np.linalg.norm(ref) for dt in dts]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        for i, p in enumerate(orders):
            assert 1.8 <= p <= 2.2, (
                f"splitting order {p:.3f} outside 2.0 +/- 0.2 "
                f"(errors {errs[i]:.3e} -> {errs[i+1]:.3e})"
            )


class TestRun:
    """Full marches: stationarity, monotonicity, residual sign, positivity."""

    def test_uniform_state_is_stationary(self, grid2, ang2):
        u0 = PhaseField(grid2, ang2, np.ones(grid2.shape + (64,)))
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.5, lmax=8)
        snaps, recs = run(cfg, u0)
        # run() keeps no snapshots unless asked; re-march with them on
        cfg = SolverConfig(
            kernel=SPEC2, dt=0.05, t_end=0.5, lmax=8, snapshot_every=10
        )
        snaps, recs = run(cfg, u0)
        dev = np.max(np.abs(snaps[-1].values - 1.0))
        assert dev <= 1e-12, f"uniform state drifted by {dev:.2e}"
        worst = max(abs(r.energy_residual) for r in recs[1:])
        assert worst <= 1e-10, f"uniform-state residual {worst:.2e}"

    def test_default_style_run_invariants(self, grid2, ang2):
        u0 = make_initial(
            "harmonic-perturbation", grid2, ang2, sigma=0.8, degree=1, contrast=0.5
        )
        cfg = SolverConfig(
            kernel=SPEC2, dt=0.01, t_end=0.5, lmax=32,
            snapshot_every=10, diagnostics_every=5,
        )
        snaps, recs = run(cfg, u0)
        drift = abs(recs[-1].mass - recs[0].mass) / recs[0].mass
        assert drift <= 1e-12, f"mass drift {drift:.2e}"
        l2s = np.array([r.l2 for r in recs])
        assert np.all(np.diff(l2s) < 0.0), "L2 must decrease strictly"
        floor = -1e-6
        for prev, rec in zip(recs, recs[1:]):
            scaled = rec.energy_residual / prev.l2**2
            assert scaled >= floor, f"interval residual {scaled:.2e} at t={rec.time}"
        max0 = np.max(u0.values)
        worst_min = min(s.min_value() for s in snaps)
        assert worst_min >= -1e-8 * max0, f"positivity broke: {worst_min:.2e}"
        assert len(snaps) == 6  # t = 0, 0.1, ..., 0.5
        assert len(recs) == 11  # t = 0, 0.05, ..., 0.5

    def test_initial_data_with_infinite_l2_is_rejected(self, grid2, ang2):
        """A u0 whose squares overflow is a bad parameter, not a run whose
        diagnostics read l2 = inf."""
        u0 = make_initial("isotropic-blob", grid2, ang2, amplitude=1e300)
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.1, lmax=8)
        with np.errstate(over="ignore"), pytest.raises(ParameterOutOfRange, match="L2"):
            run(cfg, u0)

    def test_a_non_finite_l2_fails_the_step(self, grid2, ang2, monkeypatch):
        """A step whose ||u||^2 is not finite is an invariant violation, also
        when every spectrum entry is finite (a square overflowed)."""
        step = solver._SpectralEngine.scatter_spectrum
        monkeypatch.setattr(
            solver._SpectralEngine,
            "scatter_spectrum",
            lambda eng, spec, weight: step(eng, spec, weight)[:2] + (np.inf,),
        )
        u0 = make_initial("isotropic-blob", grid2, ang2)
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.1, lmax=8)
        with pytest.raises(InvariantViolation, match="non-finite L2"):
            run(cfg, u0)

    def test_energy_accounting_finite_past_degree_170(self):
        """344 angles resolve degrees up to 172, where Gamma(l + s + 1/2)
        overflows a double; the H^s weights must stay finite there."""
        grid = SpatialGrid(2, 8.0, 8)
        ang = sphere_quadrature(2, 344)
        u0 = make_initial("gaussian-beam", grid, ang, sigma=1.0, sigma_theta=0.6)
        cfg = SolverConfig(kernel=SPEC2, dt=0.01, t_end=0.05, lmax=32)
        _, recs = run(cfg, u0)
        for rec in recs:
            assert np.isfinite(rec.hs_integral), f"hs_integral at t={rec.time}"
            assert np.isfinite(rec.energy_residual), f"residual at t={rec.time}"
        assert recs[-1].hs_integral > 0.0

    def test_x_uniform_anisotropy_decay_rate(self, grid2, ang2):
        tab = funk_hecke_eigs(SPEC2, 2)
        phi = np.arctan2(ang2.nodes[:, 1], ang2.nodes[:, 0])
        u0 = PhaseField(grid2, ang2, x_uniform(grid2, 1.0 + 0.5 * np.cos(phi)))
        t_end = 1.0
        cfg = SolverConfig(
            kernel=SPEC2, dt=0.01, t_end=t_end, lmax=8, snapshot_every=100
        )
        snaps, _ = run(cfg, u0)
        prof = snaps[-1].values[0, 0]
        # recover the l=1 amplitude by direct projection
        amp0 = 2.0 * (u0.values[0, 0] @ (ang2.weights * np.cos(phi))) / (2 * np.pi)
        ampT = 2.0 * (prof @ (ang2.weights * np.cos(phi))) / (2 * np.pi)
        pred = np.exp(tab.lambdas[1] * t_end)
        dev = abs(ampT / amp0 - pred) / pred
        assert dev <= 1e-8, f"anisotropy decay off by {dev:.2e}"

    def test_hg_kernel_run(self, grid2, ang2):
        u0 = make_initial("gaussian-beam", grid2, ang2, sigma=1.0, sigma_theta=0.6)
        cfg = SolverConfig(kernel=HGSpec(base=SPEC2, g=0.9), dt=0.01, t_end=0.2, lmax=32)
        _, recs = run(cfg, u0)
        l2s = np.array([r.l2 for r in recs])
        assert np.all(np.diff(l2s) < 0.0), "HG run must still dissipate"

    def test_d3_run_invariants(self, grid3, ang3):
        u0 = make_initial("gaussian-beam", grid3, ang3, sigma=1.0, sigma_theta=0.7)
        cfg = SolverConfig(kernel=SPEC3, dt=0.02, t_end=0.2, lmax=8)
        _, recs = run(cfg, u0)
        drift = abs(recs[-1].mass - recs[0].mass) / recs[0].mass
        assert drift <= 1e-12, f"mass drift {drift:.2e}"
        l2s = np.array([r.l2 for r in recs])
        assert np.all(np.diff(l2s) < 0.0)
        for prev, rec in zip(recs, recs[1:]):
            scaled = rec.energy_residual / prev.l2**2
            assert scaled >= -1e-6, f"interval residual {scaled:.2e}"

    def test_backend_agreement(self, grid2, ang2):
        """Spectral and projected marches from common data, same t_end.

        The projected grid misses the polar cap (4% of the measure at
        L = 16), so the final-norm comparison carries that sampling deficit;
        the decay factors isolate the dynamics and agree far tighter.
        """
        u0 = make_initial(
            "harmonic-perturbation", grid2, ang2, sigma=0.8, degree=1, contrast=0.5
        )
        _, recs = run(SolverConfig(kernel=SPEC2, dt=0.01, t_end=0.5, lmax=16), u0)
        pang = ProjectedAngularGrid(PlaneGrid(2, 16, 128))
        u0p = make_initial(
            "harmonic-perturbation", grid2, pang, sigma=0.8, degree=1, contrast=0.5
        )
        cfgp = SolverConfig(
            kernel=SPEC2, dt=0.005, t_end=0.5, lmax=16, backend="projected-plane"
        )
        _, recsp = run(cfgp, u0p)
        norm_diff = abs(recsp[-1].l2 - recs[-1].l2) / recs[-1].l2
        assert norm_diff <= 2e-2, f"backend L2 norms differ {norm_diff:.2e}"
        fs = recs[-1].l2 / recs[0].l2
        fp = recsp[-1].l2 / recsp[0].l2
        factor_diff = abs(fs - fp) / fs
        assert factor_diff <= 2e-2, f"decay factors differ {factor_diff:.2e}"

    def test_backend_agreement_d3(self, ang3):
        """The d = 3 marches, sphere-spectral against a 32^2 plane at L = 8,
        over 25 steps just under the plane's dt bound (4.09e-4).

        The angular dynamics do not see the spatial grid, so a 4^3 box keeps
        the projected march near a second.  Over t = 0.01 the L2 norm falls
        by about 0.9%; the two drops agree to about 10% (the plane misses
        the polar cap), and the norms and decay factors far tighter.
        """
        grid = SpatialGrid(3, 8.0, 4)
        pang = ProjectedAngularGrid(PlaneGrid(3, 8.0, 32))
        l2 = []
        for angular, backend in ((ang3, "sphere-spectral"), (pang, "projected-plane")):
            u0 = make_initial(
                "harmonic-perturbation", grid, angular, sigma=1.0, degree=1, contrast=0.5
            )
            cfg = SolverConfig(
                kernel=SPEC3, dt=4e-4, t_end=1e-2, lmax=15, backend=backend
            )
            _, recs = run(cfg, u0)
            l2.append((recs[0].l2, recs[-1].l2))
        (s0, s1), (p0, p1) = l2
        norm_diff = abs(p1 - s1) / s1
        assert norm_diff <= 1e-2, f"backend L2 norms differ {norm_diff:.2e}"
        factor_diff = abs(p1 / p0 - s1 / s0) / (s1 / s0)
        assert factor_diff <= 2e-3, f"decay factors differ {factor_diff:.2e}"
        drop_ratio = (1.0 - p1 / p0) / (1.0 - s1 / s0)
        assert abs(drop_ratio - 1.0) <= 0.2, f"L2 drops differ by {drop_ratio:.3f}x"

    def test_diagnostics_cadence(self, grid2, ang2):
        u0 = make_initial("isotropic-blob", grid2, ang2)
        cfg = SolverConfig(
            kernel=SPEC2, dt=0.01, t_end=0.5, lmax=8, diagnostics_every=7
        )
        _, recs = run(cfg, u0)
        # t=0, steps 7..49 on the cadence, then the final step
        assert len(recs) == 9
        assert recs[1].time == pytest.approx(0.07)
        assert recs[-1].time == pytest.approx(0.5)


class TestSnapshotIO:
    """Binary snapshot and CSV diagnostics formats."""

    def test_snapshot_round_trip(self, tmp_path, grid2, ang2):
        u0 = make_initial("gaussian-beam", grid2, ang2, sigma=1.0)
        cfg = SolverConfig(
            kernel=SPEC2, dt=0.05, t_end=0.1, lmax=8, snapshot_every=1
        )
        snaps, _ = run(cfg, u0)
        path = os.fspath(tmp_path / "state.snap")
        write_snapshot(snaps[-1], path)
        d, m, n_ang, t, vals = read_snapshot(path)
        assert (d, m, n_ang) == (2, 32, 64)
        assert t == pytest.approx(snaps[-1].time)
        assert np.array_equal(vals, snaps[-1].values)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_snapshot_payload_is_the_fields_bytes(self, tmp_path, grid2, ang2, order):
        """The payload is written from the array's buffer; a field in any
        memory order writes the bytes of its C-ordered little-endian copy."""
        rng = np.random.default_rng(11)
        values = np.asarray(rng.standard_normal(grid2.shape + (64,)), order=order)
        u = PhaseField(grid2, ang2, values, time=0.25)
        path = os.fspath(tmp_path / "state.snap")
        write_snapshot(u, path)
        raw = open(path, "rb").read()
        want = np.ascontiguousarray(values, dtype="<f8").tobytes()
        assert raw[SNAPSHOT_HEADER_BYTES:] == want

    def test_snapshot_header_checks(self, tmp_path, grid2, ang2):
        u = PhaseField(grid2, ang2, np.ones(grid2.shape + (64,)))
        path = os.fspath(tmp_path / "state.snap")
        write_snapshot(u, path)
        raw = bytearray(open(path, "rb").read())
        bad_magic = bytearray(raw)
        bad_magic[0] ^= 0xFF
        open(path, "wb").write(bytes(bad_magic))
        with pytest.raises(InvariantViolation):
            read_snapshot(path)
        bad_version = bytearray(raw)
        bad_version[4] = 99
        open(path, "wb").write(bytes(bad_version))
        with pytest.raises(InvariantViolation):
            read_snapshot(path)

    def test_truncated_snapshot_rejected(self, tmp_path, grid2, ang2):
        u = PhaseField(grid2, ang2, np.ones(grid2.shape + (64,)))
        path = os.fspath(tmp_path / "state.snap")
        write_snapshot(u, path)
        raw = open(path, "rb").read()
        for cut in (8, 1):
            open(path, "wb").write(raw[:-cut])
            with pytest.raises(InvariantViolation, match="payload"):
                read_snapshot(path)
        open(path, "wb").write(raw + bytes(8))
        with pytest.raises(InvariantViolation, match="payload"):
            read_snapshot(path)
        open(path, "wb").write(raw[:20])
        with pytest.raises(InvariantViolation, match="header"):
            read_snapshot(path)

    def test_diagnostics_csv_format(self, tmp_path, grid2, ang2):
        u0 = make_initial("isotropic-blob", grid2, ang2)
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.2, lmax=8)
        _, recs = run(cfg, u0)
        path = os.fspath(tmp_path / "diag.csv")
        write_diagnostics(recs, path)
        lines = open(path).read().splitlines()
        assert lines[0] == DIAGNOSTICS_HEADER
        assert len(lines) == len(recs) + 1
        cells = lines[-1].split(",")
        # %.17g round-trips doubles exactly
        assert float(cells[1]) == recs[-1].mass
        assert float(cells[2]) == recs[-1].l2


class TestValidation:
    """Failure paths the config and marcher must reject."""

    def test_projected_dt_over_stability_bound(self, grid2):
        pang = ProjectedAngularGrid(PlaneGrid(2, 16, 128))
        u0 = make_initial("gaussian-beam", grid2, pang, sigma=1.0)
        cfg = SolverConfig(
            kernel=SPEC2, dt=0.05, t_end=0.5, lmax=8, backend="projected-plane"
        )
        with pytest.raises(StabilityViolation):
            run(cfg, u0)

    def test_projected_needs_matching_grid_and_kernel(self, grid2, ang2):
        u0 = make_initial("gaussian-beam", grid2, ang2, sigma=1.0)
        cfg = SolverConfig(
            kernel=SPEC2, dt=0.001, t_end=0.002, lmax=8, backend="projected-plane"
        )
        with pytest.raises(ParameterOutOfRange):
            run(cfg, u0)  # sphere nodes offered to the plane engine
        pang = ProjectedAngularGrid(PlaneGrid(2, 16, 128))
        u0p = make_initial("gaussian-beam", grid2, pang, sigma=1.0)
        cfg = SolverConfig(
            kernel=HGSpec(base=SPEC2, g=0.9), dt=0.001, t_end=0.002, lmax=8,
            backend="projected-plane",
        )
        with pytest.raises(ParameterOutOfRange):
            run(cfg, u0p)

    def test_config_rejections(self, grid2, ang2):
        with pytest.raises(UnknownKind):
            SolverConfig(kernel=SPEC2, dt=0.01, t_end=1.0, lmax=8, backend="magic")
        with pytest.raises(ParameterOutOfRange):
            SolverConfig(kernel=SPEC2, dt=-0.01, t_end=1.0, lmax=8)
        with pytest.raises(ParameterOutOfRange):
            SolverConfig(kernel=SPEC2, dt=0.5, t_end=0.1, lmax=8)
        with pytest.raises(ParameterOutOfRange):
            SolverConfig(kernel=SPEC2, dt=0.01, t_end=1.0, lmax=0)

    def test_run_rejections(self, grid2, ang2):
        u0 = make_initial("gaussian-beam", grid2, ang2, sigma=1.0)
        cfg = SolverConfig(kernel=SPEC2, dt=0.03, t_end=0.1, lmax=8)
        with pytest.raises(ParameterOutOfRange):
            run(cfg, u0)  # t_end not an integer multiple of dt
        bad = PhaseField(grid2, ang2, u0.values - 10.0)
        cfg = SolverConfig(kernel=SPEC2, dt=0.01, t_end=0.1, lmax=8)
        with pytest.raises(ParameterOutOfRange):
            run(cfg, bad)
