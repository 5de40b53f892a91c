"""Kernel evaluation and derived constants against independent oracles.

Frozen reference values were produced with mpmath at 30 significant digits:
the fractional constant through the singular-integral definition
(1/c = int (1-cos z_1)/|z|^{n+2s} dz, oscillatory tail summed between Bessel
zeros) and the Bessel/conformal constants through the Gamma closed forms.
"""

import mpmath
import numpy as np
import pytest

from prte import kernels
from prte.errors import ParameterOutOfRange, SingularArgument
from prte.kernels import HGSpec, KernelSpec

SQ2 = np.sqrt(2.0)


class TestLimitingKernel:
    def test_frozen_values(self):
        spec = KernelSpec(d=3, s=0.5, b1=2.0 ** (-0.5))
        assert kernels.limiting_kernel(spec, 0.0) == pytest.approx(2.0 ** (-0.5), rel=1e-14)
        spec1 = KernelSpec(d=3, s=0.5, b1=1.0)
        assert kernels.limiting_kernel(spec1, -1.0) == pytest.approx(2.0 ** (-1.5), rel=1e-14)

    def test_singularity_guard(self):
        spec = KernelSpec(d=2, s=0.25, b1=1.0)
        with pytest.raises(SingularArgument):
            kernels.limiting_kernel(spec, 1.0)
        with pytest.raises(SingularArgument):
            kernels.limiting_kernel(spec, 1.0 - 1e-15)
        # just below the guard must evaluate
        assert np.isfinite(kernels.limiting_kernel(spec, 1.0 - 1e-13))

    def test_remainder_added(self):
        spec = KernelSpec(d=2, s=0.25, b1=1.0, h=lambda z: 0.3 * (1.0 + z) ** 2)
        base = KernelSpec(d=2, s=0.25, b1=1.0)
        z = np.linspace(-1.0, 0.9, 40)
        assert np.allclose(
            kernels.limiting_kernel(spec, z),
            kernels.limiting_kernel(base, z) + 0.3 * (1.0 + z) ** 2,
        )

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            KernelSpec(d=2, s=0.5, b1=1.0)  # s must stay below (d-1)/2
        with pytest.raises(ParameterOutOfRange):
            KernelSpec(d=3, s=1.0, b1=1.0)
        with pytest.raises(ParameterOutOfRange):
            KernelSpec(d=3, s=0.5, b1=-0.1)
        with pytest.raises(ParameterOutOfRange):
            kernels.constants(KernelSpec(d=3, s=0.5, b1=0.0))  # b1 = 0 carries no constants
        with pytest.raises(ParameterOutOfRange):
            KernelSpec(d=4, s=0.5, b1=1.0)
        with pytest.raises(ParameterOutOfRange):
            KernelSpec(d=2, s=0.25, b1=1.0, h=lambda z: z)  # negative on [-1, 0)


class TestHenyeyGreenstein:
    def test_forward_value_frozen(self):
        """At z = 1 the rescaled kernel equals (1+g)/(1-g)^{2 alpha}: 12 for g = 1/2, d=3, s=1/2."""
        hg = HGSpec(base=KernelSpec(d=3, s=0.5, b1=1.0), g=0.5)
        assert kernels.hg_rescaled(hg, 1.0) == pytest.approx(12.0, rel=1e-14)

    def test_transverse_value(self):
        """At z = 0: (1+g)/(1+g^2)^{3/2} for d = 3, s = 1/2."""
        for g in (0.3, 0.5, 0.9):
            hg = HGSpec(base=KernelSpec(d=3, s=0.5, b1=1.0), g=g)
            assert kernels.hg_rescaled(hg, 0.0) == pytest.approx(
                (1.0 + g) / (1.0 + g * g) ** 1.5, rel=1e-14
            )

    def test_pointwise_limit_toward_limiting_kernel(self):
        """b^g -> 2^{1-alpha}(1-z)^{-alpha} pointwise on z < 1 as g -> 1."""
        for d, s in ((2, 0.25), (3, 0.5)):
            base = KernelSpec(d=d, s=s, b1=1.0)
            target = KernelSpec(d=d, s=s, b1=kernels.hg_limit_b1(d, s))
            z = np.linspace(-1.0, 0.5, 31)
            prev = None
            for g in (0.9, 0.99, 0.999):
                gap = np.abs(
                    kernels.hg_rescaled(HGSpec(base=base, g=g), z)
                    - kernels.limiting_kernel(target, z)
                ).max()
                if prev is not None:
                    assert gap < prev, f"d={d}: HG kernel not converging ({gap} !< {prev})"
                prev = gap
            assert prev < 5e-3

    def test_g_range(self):
        with pytest.raises(ParameterOutOfRange):
            HGSpec(base=KernelSpec(d=3, s=0.5, b1=1.0), g=1.0)
        with pytest.raises(ParameterOutOfRange):
            HGSpec(base=KernelSpec(d=3, s=0.5, b1=1.0), g=0.0)


class TestConstants:
    def test_frac_constant_frozen(self):
        """c_{1,1/2} = 1/pi exactly; c_{1,1/4} and c_{2,1/2} frozen from the singular-integral oracle."""
        assert kernels.frac_constant(1, 0.5) == pytest.approx(1.0 / np.pi, rel=1e-13)
        assert kernels.frac_constant(1, 0.25) == pytest.approx(0.19947114020071634, rel=1e-13)
        assert kernels.frac_constant(2, 0.5) == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-13)
        assert kernels.frac_constant(2, 0.25) == pytest.approx(0.08324198387542507, rel=1e-13)

    def test_frac_constant_against_singular_integral(self):
        """Re-derive 1/c_{1,s} = 2 int_0^inf (1-cos z) z^{-1-2s} dz with scipy on the spot."""
        from scipy import integrate

        for s in (0.25, 0.4):
            body, _ = integrate.quad(
                lambda z: (1.0 - np.cos(z)) / z ** (1.0 + 2 * s), 0.0, 50.0, limit=400
            )
            # tail: int_A^inf z^{-1-2s} dz minus the decaying cosine part (integrate by parts twice)
            A = 50.0
            osc, _ = integrate.quad(
                lambda z: np.cos(z) / z ** (1 + 2 * s), A, 20000.0, limit=4000
            )
            inv_c = 2.0 * (body + A ** (-2 * s) / (2 * s) - osc)
            assert kernels.frac_constant(1, s) == pytest.approx(1.0 / inv_c, rel=1e-4)

    def test_bessel_constant_frozen(self):
        assert kernels.bessel_constant(3, 0.5) == pytest.approx(1.0, rel=1e-14)
        expected = 0.477988797486125  # sqrt(2) Gamma(3/4) / Gamma(1/4)
        assert kernels.bessel_constant(2, 0.25) == pytest.approx(expected, rel=1e-13)
        from scipy.special import gamma

        assert kernels.bessel_constant(2, 0.25) == pytest.approx(
            SQ2 * gamma(0.75) / gamma(0.25), rel=1e-14
        )

    def test_bessel_constant_pole_guard(self):
        with pytest.raises(ParameterOutOfRange):
            kernels.bessel_constant(2, 0.5)
        with pytest.raises(ParameterOutOfRange):
            kernels.bessel_constant(3, 1.0)

    def test_conformal_eigenvalues_frozen(self):
        """mu_l = 2^{2s} Gamma(l+(d-1)/2+s)/Gamma(l+(d-1)/2-s); mu_0 = c_bessel."""
        mu = kernels.conformal_eigenvalue
        assert mu(2, 0.25, 0) == pytest.approx(kernels.bessel_constant(2, 0.25), rel=1e-14)
        assert mu(2, 0.25, 1) == pytest.approx(1.43396639245837499, rel=1e-14)
        assert mu(2, 0.25, 4) == pytest.approx(2.83116441587935574, rel=1e-14)
        # d=3, s=1/2: mu_l = 2l + 1 exactly
        assert np.allclose(mu(3, 0.5, np.arange(6)), 2.0 * np.arange(6) + 1.0, rtol=1e-14)

    @pytest.mark.parametrize("d,s", [(2, 0.25), (3, 0.3), (2, 0.45)])
    def test_conformal_eigenvalues_against_mpmath(self, d, s):
        """The Gamma-ratio recurrence against mpmath's Gamma at 40 digits,
        through l = 2000 (double-precision Gamma overflows beyond l = 170)."""
        ell = np.arange(2001)
        with mpmath.workdps(40):
            half, sm = mpmath.mpf(d - 1) / 2, mpmath.mpf(s)
            ref = np.array(
                [
                    float(4**sm * mpmath.gammaprod([l + half + sm], [l + half - sm]))
                    for l in range(ell.size)
                ]
            )
        mu = kernels.conformal_eigenvalue(d, s, ell)
        err = np.max(np.abs(mu / ref - 1.0))
        assert err < 1e-12, f"d={d}, s={s}: relative error {err:.2e}"
        # a degree on its own reads the same entry as in the array
        assert kernels.conformal_eigenvalue(d, s, 2000) == mu[-1]

    def test_conformal_eigenvalue_degree_validation(self):
        for bad in (-1, 1.5, np.nan):
            with pytest.raises(ParameterOutOfRange):
                kernels.conformal_eigenvalue(2, 0.25, bad)

    def test_derived_constants_default_kernel(self):
        """D, D0, D1 for the d=2, s=1/4, b1=1, h=0 kernel (frozen from the Gamma forms)."""
        spec = KernelSpec(d=2, s=0.25, b1=1.0)
        cst = kernels.constants(spec)
        assert cst.c_frac == pytest.approx(0.19947114020071634, rel=1e-13)
        assert cst.D == pytest.approx(5.961800357716361, rel=1e-13)
        assert cst.D0 == pytest.approx(2.0 * 5.961800357716361, rel=1e-13)
        assert cst.D1 == pytest.approx(cst.D * cst.c_bessel, rel=1e-13)

    def test_hg_limit_strength(self):
        """b1 of the g->1 limit: 2^{1-alpha}; for d=3, s=1/2 this is 2^{-1/2}."""
        assert kernels.hg_limit_b1(3, 0.5) == pytest.approx(2.0 ** (-0.5), rel=1e-14)
        assert kernels.hg_limit_b1(2, 0.25) == pytest.approx(2.0**0.25, rel=1e-14)

    def test_remainder_mass(self):
        """h == c integrates to c |S^{d-1}|; D1 picks up 2 h_l1."""
        for d, area in ((2, 2 * np.pi), (3, 4 * np.pi)):
            spec = KernelSpec(d=d, s=0.25, b1=1.0, h=lambda z: 0.7)
            assert spec.h_l1 == pytest.approx(0.7 * area, rel=1e-9)
            cst = kernels.constants(spec)
            base = kernels.constants(KernelSpec(d=d, s=0.25, b1=1.0))
            assert cst.D1 == pytest.approx(base.D1 + 2 * 0.7 * area, rel=1e-9)

    def test_remainder_parser(self):
        assert kernels.parse_remainder("none") is None
        h = kernels.parse_remainder("const:0.25")
        assert h(0.3) == 0.25
        h = kernels.parse_remainder("poly:1.0,0.0,0.5")
        assert h(0.5) == pytest.approx(1.125)
        with pytest.raises(ParameterOutOfRange):
            kernels.parse_remainder("exp:1")
