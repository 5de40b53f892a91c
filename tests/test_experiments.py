"""Verification studies: report plumbing, rate fits, and the five studies."""

from dataclasses import replace

import numpy as np
import pytest

from prte.errors import (
    NonMonotoneConvergence,
    ParameterOutOfRange,
    WindowTooShort,
)
from prte.experiments import (
    CheckResult,
    FitResult,
    REPORT_HEADER,
    StudyReport,
    decay_study,
    fit_rate,
    hg_convergence_study,
    level_set_energy_check,
    operator_rate_study,
    read_report,
    regularity_exponent,
    rho,
    rho_regularity_study,
    write_report,
)
from prte.fracop import PlaneField, PlaneGrid
from prte.kernels import HGSpec, KernelSpec
from prte.scatter import sphere_quadrature
from prte.solver import (
    PhaseField,
    SolverConfig,
    SpatialGrid,
    _SpectralEngine,
    make_initial,
)

SPEC2 = KernelSpec(d=2, s=0.25, b1=1.0)


@pytest.fixture(scope="module")
def grid2():
    return SpatialGrid(2, 8.0, 32)


@pytest.fixture(scope="module")
def ang2():
    return sphere_quadrature(2, 64)


@pytest.fixture(scope="module")
def beam2(grid2, ang2):
    return make_initial("gaussian-beam", grid2, ang2, sigma=1.0, sigma_theta=0.6)


def cut_gaussian(grid, width=0.4, cut=3.0):
    """Compact probe: Gaussian hard-cut at radius `cut` (inside L/2)."""
    pts = grid.points()
    r2 = np.sum(pts * pts, axis=-1).reshape(grid.shape)
    return PlaneField(grid, np.where(r2 < cut * cut, np.exp(-r2 / (2 * width**2)), 0.0))


class TestFitRate:
    """Log-log least squares with input validation."""

    def test_exact_power_law_recovered(self):
        xs = np.array([0.1, 0.05, 0.025, 0.0125])
        p, c, resid = fit_rate(xs, 3.0 * xs**2)
        assert abs(p - 2.0) < 1e-12, f"exponent {p}"
        assert abs(c - 3.0) < 1e-12, f"prefactor {c}"
        assert resid < 1e-13, f"residual {resid}"

    def test_needs_three_points(self):
        with pytest.raises(ParameterOutOfRange):
            fit_rate([1.0, 0.5], [1.0, 0.5])

    def test_needs_aligned_lengths(self):
        with pytest.raises(ParameterOutOfRange):
            fit_rate([1.0, 0.5, 0.25], [1.0, 0.5])

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ParameterOutOfRange):
            fit_rate([1.0, 0.5, 0.25], [1.0, 0.0, 0.25])


class TestStudyReport:
    """Schema invariants plus exact CSV round-trips."""

    def make(self):
        return StudyReport(
            "demo",
            (0.5, 0.7, 0.9),
            (1.0 / 3.0, 0.2, 0.1),
            (FitResult("order", 1.2345678901234567, 1e-3),),
            (
                CheckResult("good", 0.01, 0.1, True),
                CheckResult("bad", 5.0, 1.0, False),
            ),
            ("a note",),
        )

    def test_ladder_needs_three_points(self):
        with pytest.raises(ParameterOutOfRange):
            StudyReport("x", (1.0, 2.0), (1.0, 2.0), (), ())

    def test_values_must_align(self):
        with pytest.raises(ParameterOutOfRange):
            StudyReport("x", (1.0, 2.0, 3.0), (1.0, 2.0), (), ())

    def test_passed_is_conjunction(self):
        rep = self.make()
        assert not rep.passed
        all_good = StudyReport(
            "y", rep.ladder, rep.values, rep.fits, (rep.checks[0],)
        )
        assert all_good.passed

    def test_roundtrip_is_exact(self, tmp_path):
        rep = self.make()
        csv_path, txt_path = write_report(rep, str(tmp_path))
        back = read_report(csv_path)
        assert back.ladder == rep.ladder, "ladder drifted through CSV"
        assert back.values == rep.values, "values drifted through CSV"
        assert back.fits == rep.fits, "fits drifted through CSV"
        assert back.checks == rep.checks, "checks drifted through CSV"
        text = open(txt_path).read()
        assert "result: FAIL" in text and "[FAIL] bad" in text

    def test_csv_has_header(self, tmp_path):
        csv_path, _ = write_report(self.make(), str(tmp_path))
        assert open(csv_path).readline().strip() == REPORT_HEADER

    def test_read_rejects_wrong_extension(self, tmp_path):
        p = tmp_path / "demo.csv"
        p.write_text("kind\n")
        with pytest.raises(ParameterOutOfRange):
            read_report(str(p))

    def test_read_rejects_bad_header(self, tmp_path):
        p = tmp_path / "demo.report.csv"
        p.write_text("time,mass\npoint,,1,1,,,\n")
        with pytest.raises(ParameterOutOfRange):
            read_report(str(p))


class TestRhoAndRegularity:
    """Angular averaging and the smoothing-exponent formula."""

    def test_rho_integrates_to_mass(self, grid2, ang2, beam2):
        dens = rho(beam2)
        assert dens.shape == grid2.shape
        total = grid2.cell_volume() * float(np.sum(dens))
        assert total == pytest.approx(beam2.mass(), rel=1e-13)

    def test_exponent_value_d3(self):
        # q = 2/(1-s) = 4 at s = 1/2: beta = 8/(20 - 0.5) = 16/39
        assert regularity_exponent(3, 0.5, 0.5) == pytest.approx(16.0 / 39.0, rel=1e-15)

    def test_exponent_range(self):
        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            for delta in (0.1, 0.5, 0.9):
                beta = regularity_exponent(3, s, delta)
                assert 0.4 < beta < 0.5, f"beta={beta} out of band at s={s}"

    def test_exponent_validation(self):
        with pytest.raises(ParameterOutOfRange):
            regularity_exponent(4, 0.5)
        with pytest.raises(ParameterOutOfRange):
            regularity_exponent(3, 1.0)
        with pytest.raises(ParameterOutOfRange):
            regularity_exponent(3, 0.5, delta=0.0)

    def test_uniform_density_has_zero_seminorm(self, grid2, ang2):
        """A spatially uniform isotropic field stays uniform under the march."""
        vals = np.full(grid2.shape + (len(ang2.weights),), 0.7)
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.5, lmax=32)
        rep = rho_regularity_study(cfg, PhaseField(grid2, ang2, vals, 0.0))
        assert len(rep.ladder) >= 3
        assert rep.values == pytest.approx([0.0] * len(rep.values), abs=1e-14)
        assert rep.checks[0].value == pytest.approx(0.0, abs=1e-14)

    def test_study_on_beam_run(self, beam2):
        cfg = SolverConfig(kernel=SPEC2, dt=0.02, t_end=0.5, lmax=32)
        rep = rho_regularity_study(cfg, beam2)
        assert rep.name == "rho-regularity"
        assert rep.passed, f"failed checks: {[c for c in rep.checks if not c.passed]}"
        assert len(rep.ladder) >= 3
        assert rep.fits[0].exponent == pytest.approx(
            regularity_exponent(2, 0.25), rel=1e-15
        )
        assert any("extrapolated" in n for n in rep.notes), "d=2 caveat missing"


class TestHGConvergence:
    """Bounded-family solution error against the limiting march."""

    def cfg(self):
        return SolverConfig(kernel=SPEC2, dt=0.02, t_end=1.0, lmax=32)

    def test_frozen_ladder_passes(self, beam2):
        rep = hg_convergence_study(self.cfg(), beam2, [0.8, 0.9, 0.95, 0.975])
        assert rep.name == "hg-convergence"
        assert rep.passed, f"failed: {[c.label for c in rep.checks if not c.passed]}"
        errs = rep.values
        assert all(b < a for a, b in zip(errs, errs[1:])), f"not decreasing: {errs}"
        assert errs[-1] <= 0.5 * errs[0], f"finest {errs[-1]} vs coarsest {errs[0]}"
        order = rep.fits[0].exponent
        assert 0.3 < order < 1.2, f"order {order} outside the expected band"

    def test_preasymptotic_ladder_raises(self, beam2):
        # per-mode eigenvalue gaps change sign below g ~ 0.8
        with pytest.raises(NonMonotoneConvergence):
            hg_convergence_study(self.cfg(), beam2, [0.5, 0.7, 0.85])

    def test_threads_do_not_change_bits(self, beam2):
        a = hg_convergence_study(self.cfg(), beam2, [0.8, 0.9, 0.95], threads=1)
        b = hg_convergence_study(self.cfg(), beam2, [0.8, 0.9, 0.95], threads=3)
        assert a.values == b.values, "worker count leaked into the measurements"

    def test_ladder_validation(self, beam2):
        for bad in ([0.8, 0.9], [0.9, 0.8, 0.95], [0.5, 0.7, 1.0]):
            with pytest.raises(ParameterOutOfRange):
                hg_convergence_study(self.cfg(), beam2, bad)

    def test_rejects_hg_base_config(self, beam2):
        cfg = SolverConfig(
            kernel=HGSpec(base=SPEC2, g=0.5), dt=0.02, t_end=1.0, lmax=32
        )
        with pytest.raises(ParameterOutOfRange):
            hg_convergence_study(cfg, beam2, [0.8, 0.9, 0.95])


class TestOperatorRate:
    """Plane-operator family against its scaled spectral limit."""

    def test_d2_rate_and_tail(self):
        grid = PlaneGrid(d=2, L=16.0, n=256)
        rep = operator_rate_study(cut_gaussian(grid), 0.25, [0.5, 0.7, 0.85, 0.95])
        assert rep.name == "operator-rate"
        assert rep.passed, f"failed: {[c.label for c in rep.checks if not c.passed]}"
        slope = rep.fits[1].exponent
        assert abs(slope + 1.5) <= 0.15, f"tail slope {slope}, expected -1.5 +- 10%"

    def test_d3_rate_and_tail(self):
        grid = PlaneGrid(d=3, L=16.0, n=128)
        rep = operator_rate_study(cut_gaussian(grid), 0.5, [0.5, 0.7, 0.85])
        assert rep.passed, f"failed: {[c.label for c in rep.checks if not c.passed]}"
        slope = rep.fits[1].exponent
        assert abs(slope + 3.0) <= 0.3, f"tail slope {slope}, expected -3 +- 10%"

    def test_probe_must_live_in_interior_half(self):
        grid = PlaneGrid(d=2, L=16.0, n=256)
        wide = PlaneField(grid, np.exp(-grid.axis() ** 2 / 50.0))
        with pytest.raises(ParameterOutOfRange):
            operator_rate_study(wide, 0.25, [0.5, 0.7, 0.85])

    def test_order_validation(self):
        grid = PlaneGrid(d=2, L=16.0, n=256)
        with pytest.raises(ParameterOutOfRange):
            operator_rate_study(cut_gaussian(grid), 1.5, [0.5, 0.7, 0.85])

    def test_rejects_all_zero_probe(self):
        grid = PlaneGrid(d=2, L=16.0, n=256)
        with pytest.raises(ParameterOutOfRange):
            operator_rate_study(
                PlaneField(grid, np.zeros(grid.shape)), 0.25, [0.5, 0.7, 0.85]
            )


class TestLevelSet:
    """Truncated-energy inequality along a run."""

    def cfg(self):
        return SolverConfig(
            kernel=SPEC2, dt=0.02, t_end=0.5, lmax=32, diagnostics_every=5
        )

    def test_beam_run_floors_hold(self, beam2):
        m0 = float(np.max(beam2.values))
        rep = level_set_energy_check(self.cfg(), beam2, [0.0, 0.25 * m0, 0.5 * m0])
        assert rep.name == "level-set"
        assert rep.passed, f"failed: {[c.label for c in rep.checks if not c.passed]}"
        assert all(v >= -1e-6 for v in rep.values), f"residual floors: {rep.values}"

    def test_zero_level_matches_marcher_exactly(self, beam2):
        rep = level_set_energy_check(self.cfg(), beam2, [0.0, 0.3, 0.6])
        match = [c for c in rep.checks if c.label == "matches_marcher_at_lambda_zero"]
        assert match, "missing the marcher cross-check"
        assert match[0].value <= 1e-12, f"deviation {match[0].value:.3e}"

    def test_scatters_once_per_step(self, beam2, monkeypatch):
        """The check observes one run instead of marching a second time."""
        calls = []
        scatter_l2 = _SpectralEngine.scatter_l2

        def spy(self, *args):
            calls.append(args[1])
            return scatter_l2(self, *args)

        monkeypatch.setattr(_SpectralEngine, "scatter_l2", spy)
        cfg = replace(self.cfg(), t_end=0.1, diagnostics_every=2)
        rep = level_set_energy_check(cfg, beam2, [0.0, 0.3, 0.6])
        assert rep.passed
        assert calls == [cfg.dt] * 5

    def test_level_above_max_gives_zero_residual(self, beam2):
        m0 = float(np.max(beam2.values))
        rep = level_set_energy_check(self.cfg(), beam2, [0.0, 0.5 * m0, 2.0 * m0])
        assert rep.values[-1] == 0.0, f"empty truncation residual {rep.values[-1]}"

    def test_ladder_validation(self, beam2):
        for bad in ([0.0, 0.1], [0.1, 0.0, 0.2], [-0.1, 0.0, 0.1]):
            with pytest.raises(ParameterOutOfRange):
                level_set_energy_check(self.cfg(), beam2, bad)

    def test_no_fits_in_report(self, beam2):
        rep = level_set_energy_check(self.cfg(), beam2, [0.0, 0.3, 0.6])
        assert rep.fits == (), "level-set residual floors admit no rate fit"


class TestDecay:
    """Sup-norm decay in a boundary-clean box."""

    def test_blob_decay_exponent(self, grid2, ang2):
        u0 = make_initial("isotropic-blob", grid2, ang2, sigma=0.5)
        cfg = SolverConfig(kernel=SPEC2, dt=0.025, t_end=2.5, lmax=32)
        rep = decay_study(cfg, u0)
        assert rep.name == "decay"
        assert rep.passed, f"failed: {[c.label for c in rep.checks if not c.passed]}"
        a = rep.fits[0].exponent
        assert 0.4 <= a <= 0.9, f"decay exponent {a} outside the measured band"
        assert all(b <= a for a, b in zip(rep.values, rep.values[1:])), (
            f"sup norms rise along the ladder: {rep.values}"
        )

    def test_box_must_contain_the_cone(self, grid2, ang2):
        u0 = make_initial("isotropic-blob", grid2, ang2, sigma=0.5)
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=4.0, lmax=32)
        with pytest.raises(ParameterOutOfRange):
            decay_study(cfg, u0)  # X = 8 < 2 (1 + 4)

    def test_short_window_raises(self, grid2, ang2):
        u0 = make_initial("isotropic-blob", grid2, ang2, sigma=0.5)
        cfg = SolverConfig(kernel=SPEC2, dt=0.625, t_end=2.5, lmax=32)
        with pytest.raises(WindowTooShort):
            decay_study(cfg, u0)
