"""
Fractional Laplacian backends: spectral multiplier, singular-integral
quadrature oracle, and the bounded Henyey-Greenstein regularization.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prte.errors import BoundaryLeakage, ParameterOutOfRange
from prte.fracop import (
    PlaneField,
    PlaneGrid,
    bessel_identity_residual,
    frac_lap_g,
    frac_lap_quadrature,
    frac_lap_spectral,
    hg_kernel,
    kappa_limit,
    to_weighted,
    weight_profile,
)
from prte.kernels import HGSpec, KernelSpec, bessel_constant


def bump(r2, r0=2.0):
    """Compactly supported C^inf bump, vanishing for |v| >= r0."""
    out = np.zeros_like(r2)
    m = r2 < r0 * r0
    q = r2[m] / (r0 * r0)
    out[m] = np.exp(1.0 - 1.0 / (1.0 - q))
    return out


def gaussian_pair(grid, a=2.0):
    """exp(-r^2) minus a rescaled copy with equal mass: total integral zero."""
    r2 = np.sum(grid.points() ** 2, axis=-1)
    return np.exp(-r2) - a ** (-grid.ndim) * np.exp(-r2 / a**2)


class TestPlaneGrid:
    """Lattice container: geometry accessors and validation."""

    def test_spacing_and_axis(self):
        g = PlaneGrid(d=2, L=16.0, n=512)
        ax = g.axis()
        assert g.h == pytest.approx(0.0625)
        assert ax[0] == pytest.approx(-16.0)
        assert ax[-1] == pytest.approx(16.0 - g.h)
        assert g.points().shape == (512, 1)
        assert g.cell_volume() == pytest.approx(g.h)

    def test_square_lattice(self):
        g = PlaneGrid(d=3, L=8.0, n=64)
        assert g.shape == (64, 64)
        assert g.points().shape == (64, 64, 2)
        assert g.bracket().min() == pytest.approx(1.0)
        inner = g.interior_mask()
        ax = g.axis()
        assert inner.sum() == (np.abs(ax) <= 4.0).sum() ** 2

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            PlaneGrid(d=2, L=16.0, n=500)  # not a power of two
        with pytest.raises(ParameterOutOfRange):
            PlaneGrid(d=2, L=4.0, n=64)  # box too small
        with pytest.raises(ParameterOutOfRange):
            PlaneGrid(d=2, L=16.0, n=32)  # spacing above 0.5
        with pytest.raises(ParameterOutOfRange):
            PlaneField(PlaneGrid(d=2, L=8.0, n=64), np.zeros(65))
        with pytest.raises(ParameterOutOfRange):
            PlaneField(PlaneGrid(d=2, L=8.0, n=64), np.full(64, np.nan))

    def test_weight_roundtrip(self):
        g = PlaneGrid(d=3, L=8.0, n=64)
        s = 0.5
        w = np.exp(-np.sum(g.points() ** 2, axis=-1))
        u = w * g.bracket() ** (g.d - 1 - 2.0 * s)
        back = to_weighted(g, u, s)
        assert np.abs(back - w).max() < 1e-14, "weight transform must invert exactly"
        assert np.abs(weight_profile(g, s) - g.bracket() ** (-1.0)).max() < 1e-14


class TestSpectralBackend:
    """FFT multiplier |xi|^{2s}: eigenfunctions, kernel properties, warnings."""

    def test_plane_wave_eigenfunction(self):
        g = PlaneGrid(d=2, L=16.0, n=512)
        k = g.freq()[7]
        f = np.cos(k * g.axis())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLeakage)
            out = frac_lap_spectral(g, f, 0.25)
        err = np.abs(out - np.abs(k) ** 0.5 * f).max()
        assert err < 1e-12, f"plane wave should be exact, err = {err:.3e}"

    def test_zero_mode_and_constants(self):
        g = PlaneGrid(d=2, L=16.0, n=256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLeakage)
            out = frac_lap_spectral(g, np.full(256, 2.5), 0.25)
        assert np.abs(out).max() < 1e-13, "constants sit in the annihilated zero mode"

    def test_quadratic_form_positive(self):
        g = PlaneGrid(d=2, L=16.0, n=256)
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = rng.standard_normal(256)
            f -= f.mean()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BoundaryLeakage)
                q = g.cell_volume() * np.dot(f, frac_lap_spectral(g, f, 0.4))
            assert q > 0, f"multiplier form must be positive, got {q:.3e}"

    def test_boundary_leakage_warning(self):
        g = PlaneGrid(d=2, L=16.0, n=256)
        with pytest.warns(BoundaryLeakage):
            frac_lap_spectral(g, np.ones(256), 0.25)

    def test_order_validation(self):
        g = PlaneGrid(d=2, L=16.0, n=256)
        f = gaussian_pair(g)
        for bad in (0.0, 1.0, -0.3):
            with pytest.raises(ParameterOutOfRange):
                frac_lap_spectral(g, f, bad)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0, allow_nan=False),
        b=st.floats(-3.0, 3.0, allow_nan=False),
    )
    def test_linearity(self, a, b):
        g = PlaneGrid(d=2, L=8.0, n=64)
        rng = np.random.default_rng(1)
        f1 = np.exp(-g.axis() ** 2) * rng.standard_normal(64)
        f2 = np.exp(-g.axis() ** 2 / 2.0) * rng.standard_normal(64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryLeakage)
            lhs = frac_lap_spectral(g, a * f1 + b * f2, 0.3)
            rhs = a * frac_lap_spectral(g, f1, 0.3) + b * frac_lap_spectral(g, f2, 0.3)
        assert np.abs(lhs - rhs).max() < 1e-10 * (1.0 + abs(a) + abs(b))


class TestQuadratureOracle:
    """Direct singular-integral evaluation against closed forms."""

    def test_weight_profile_identity_d2(self):
        # (-Lap)^s <v>^{-(1-2s)} = c_bessel <v>^{-(1+2s)}, analytic extension supplied
        g = PlaneGrid(d=2, L=16.0, n=512)
        s = 0.25
        w = weight_profile(g, s)
        f_ext = lambda pts: (1.0 + np.sum(pts**2, axis=-1)) ** (-(g.ndim - 2 * s) / 2.0)
        ti = [int(i) for i in np.linspace(128, 384, 41)]
        out = frac_lap_quadrature(g, w, s, [(i,) for i in ti], f_ext=f_ext)
        exact = bessel_constant(2, s) * (1.0 + g.axis()[ti] ** 2) ** (-(g.ndim + 2 * s) / 2.0)
        rel = np.abs(out - exact).max() / np.abs(exact).max()
        assert rel < 5e-5, f"d=2 weight profile quadrature off by {rel:.3e}"

    def test_weight_profile_identity_d3(self):
        g = PlaneGrid(d=3, L=12.0, n=256)
        s = 0.5
        w = weight_profile(g, s)
        f_ext = lambda pts: (1.0 + np.sum(pts**2, axis=-1)) ** (-(g.ndim - 2 * s) / 2.0)
        ci = g.n // 2
        sel = [int(i) for i in np.linspace(ci - g.n // 4, ci + g.n // 4, 7)]
        tg = [(i, j) for i in sel for j in sel]
        out = frac_lap_quadrature(g, w, s, tg, f_ext=f_ext)
        pts = g.points()
        r2 = np.array([np.sum(pts[t] ** 2) for t in tg])
        exact = bessel_constant(3, s) * (1.0 + r2) ** (-(g.ndim + 2 * s) / 2.0)
        rel = np.abs(out - exact).max() / np.abs(exact).max()
        assert rel < 1e-3, f"d=3 weight profile quadrature off by {rel:.3e}"

    def test_boundary_targets_rejected(self):
        g = PlaneGrid(d=2, L=16.0, n=256)
        f = gaussian_pair(g)
        with pytest.raises(ParameterOutOfRange):
            frac_lap_quadrature(g, f, 0.25, [(2,)])


class TestBackendAgreement:
    """Spectral and quadrature answers coincide on mass-free fields.

    Fields with nonzero total integral cannot agree on a periodized lattice:
    the multiplier annihilates the zero mode while the true image carries a
    nonzero box mean, an offset that decays only like a power of L.  The
    mass-free Gaussian pair removes that mode, leaving pure discretization
    error.
    """

    def test_gaussian_pair_d2(self):
        g = PlaneGrid(d=2, L=16.0, n=512)
        F = gaussian_pair(g)
        assert abs(F.sum() * g.cell_volume()) < 1e-12
        sp = frac_lap_spectral(g, F, 0.25)
        ti = [int(i) for i in np.linspace(128, 384, 101)]
        qd = frac_lap_quadrature(g, F, 0.25, [(i,) for i in ti])
        rel = np.abs(sp[ti] - qd).max() / np.abs(qd).max()
        assert rel < 1e-4, f"d=2 backends disagree at {rel:.3e}"

    def test_gaussian_pair_d3(self):
        g = PlaneGrid(d=3, L=12.0, n=512)
        F = gaussian_pair(g)
        sp = frac_lap_spectral(g, F, 0.5)
        ci = g.n // 2
        sel = [int(i) for i in np.linspace(ci - g.n // 4, ci + g.n // 4, 11)]
        tg = [(i, j) for i in sel for j in sel]
        qd = frac_lap_quadrature(g, F, 0.5, tg)
        spv = np.array([sp[t] for t in tg])
        rel = np.abs(spv - qd).max() / np.abs(qd).max()
        assert rel < 1e-4, f"d=3 backends disagree at {rel:.3e}"

    def test_gaussian_pair_d3_refines(self):
        # halving h cuts the mismatch by about h^2
        rels = []
        for n in (256, 512):
            g = PlaneGrid(d=3, L=12.0, n=n)
            F = gaussian_pair(g)
            sp = frac_lap_spectral(g, F, 0.5)
            ci = g.n // 2
            sel = [int(i) for i in np.linspace(ci - g.n // 4, ci + g.n // 4, 7)]
            tg = [(i, j) for i in sel for j in sel]
            qd = frac_lap_quadrature(g, F, 0.5, tg)
            spv = np.array([sp[t] for t in tg])
            rels.append(np.abs(spv - qd).max() / np.abs(qd).max())
        assert rels[1] < 0.35 * rels[0], f"no refinement: {rels}"


class TestBesselResidual:
    """Self-contained accuracy probe from the exact weight-profile identity."""

    def test_gate_d2(self):
        g = PlaneGrid(d=2, L=16.0, n=512)
        r = bessel_identity_residual(g, 0.25)
        assert r < 1e-3, f"d=2 Bessel residual {r:.3e} above gate"

    def test_gate_d3(self):
        g = PlaneGrid(d=3, L=12.0, n=256)
        r = bessel_identity_residual(g, 0.5)
        assert r < 1e-3, f"d=3 Bessel residual {r:.3e} above gate"

    def test_monotone_in_box_size(self):
        rs = [
            bessel_identity_residual(PlaneGrid(d=2, L=L, n=n), 0.25)
            for L, n in ((8.0, 256), (16.0, 512), (32.0, 1024))
        ]
        assert rs[0] > rs[1] > rs[2], f"residuals should fall with L: {rs}"


class TestHenyeyGreensteinOperator:
    """Bounded regularization: kernel symmetry, dissipativity, g -> 1 limit."""

    def kernel_spec(self, d, s):
        return KernelSpec(d=d, s=s, b1=1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_kernel_symmetric(self, data):
        hg = HGSpec(base=self.kernel_spec(2, 0.25), g=data.draw(st.floats(0.05, 0.95)))
        v = data.draw(st.floats(-20.0, 20.0))
        vp = data.draw(st.floats(-20.0, 20.0))
        a = hg_kernel(hg, np.array([v]), np.array([vp]))
        b = hg_kernel(hg, np.array([vp]), np.array([v]))
        assert a == pytest.approx(b, rel=1e-13)

    def test_kappa_limit_values(self):
        assert kappa_limit(3, 0.5) == pytest.approx(np.pi / 2.0, rel=1e-14)
        assert kappa_limit(2, 0.25) == pytest.approx(3.5449077018110318, rel=1e-12)

    def test_quadratic_form_positive_d2(self):
        g = PlaneGrid(d=2, L=16.0, n=512)
        hg = HGSpec(base=self.kernel_spec(2, 0.25), g=0.9)
        rng = np.random.default_rng(7)
        x = g.axis()
        for _ in range(3):
            z = rng.standard_normal(g.n)
            zf = np.fft.rfft(z)
            zf *= np.exp(-0.05 * np.arange(zf.size) ** 2)
            f = np.fft.irfft(zf, g.n) * np.exp(-(x**2) / 36.0)
            q = g.cell_volume() * np.dot(f, frac_lap_g(g, f, hg))
            assert q > 0, f"dissipative form should be positive, got {q:.3e}"

    def test_quadratic_form_positive_d3(self):
        g = PlaneGrid(d=3, L=8.0, n=32)
        hg = HGSpec(base=self.kernel_spec(3, 0.5), g=0.8)
        rng = np.random.default_rng(3)
        ax = g.axis()
        v1, v2 = np.meshgrid(ax, ax, indexing="ij")
        for _ in range(2):
            z = rng.standard_normal(g.shape)
            kk = np.fft.fftfreq(g.n)[:, None] ** 2 + np.fft.fftfreq(g.n)[None, :] ** 2
            f = np.fft.ifft2(np.fft.fft2(z) * np.exp(-200 * kk)).real
            f *= np.exp(-(v1**2 + v2**2) / 9.0)
            q = g.cell_volume() * np.sum(f * frac_lap_g(g, f, hg))
            assert q > 0, f"dissipative form should be positive, got {q:.3e}"

    def test_g_ladder_converges_d2(self):
        # errors against kappa (-Lap)^s fall strictly along g -> 1
        g = PlaneGrid(d=2, L=16.0, n=1024)
        f = bump(g.axis() ** 2)
        base = self.kernel_spec(2, 0.25)
        ti = [int(i) for i in np.linspace(g.n // 4, 3 * g.n // 4, 129)]
        ref = kappa_limit(2, 0.25) * frac_lap_quadrature(g, f, 0.25, [(i,) for i in ti])
        gs = (0.9, 0.95, 0.975, 0.99)
        errs = [
            np.abs(frac_lap_g(g, f, HGSpec(base=base, g=gv), targets=[(i,) for i in ti]) - ref).max()
            for gv in gs
        ]
        assert all(a > b for a, b in zip(errs, errs[1:])), f"not decreasing: {errs}"
        beta = np.polyfit(np.log(1.0 - np.array(gs)), np.log(errs), 1)[0]
        assert beta > 0.5, f"limit rate too shallow: beta = {beta:.3f}"

    def test_far_field_decay_d2(self):
        # beyond the support the image decays like <v>^{-(d-1+2s)}
        g = PlaneGrid(d=2, L=32.0, n=1024)
        f = bump(g.axis() ** 2)
        hg = HGSpec(base=self.kernel_spec(2, 0.25), g=0.95)
        ann = [int(i) for i in np.linspace(g.n // 2 + int(8.0 / g.h), g.n // 2 + int(20.0 / g.h), 24)]
        out = frac_lap_g(g, f, hg, targets=[(i,) for i in ann])
        br = np.sqrt(1.0 + g.axis()[ann] ** 2)
        slope = np.polyfit(np.log(br), np.log(np.abs(out)), 1)[0]
        expected = -(2 - 1 + 2 * 0.25)
        assert abs(slope - expected) < 0.1 * abs(expected), (
            f"far-field slope {slope:.3f}, expected {expected}"
        )
