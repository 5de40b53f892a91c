"""
Tests for the angular scattering operator in its three forms.

The backbone is cross-validation: Funk-Hecke eigenvalues against closed
forms and an independent adaptive quadrature, the projected-plane route
against the eigenvalue action on harmonics that vanish at the projection
pole, and the cutoff weak form extrapolated to eps -> 0 against both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import eval_chebyt, eval_legendre, lpmv, sph_harm_y

from prte import scatter
from prte.errors import (
    InvariantViolation,
    ParameterOutOfRange,
    QuadratureNonConvergence,
)
from prte.fracop import PlaneField, PlaneGrid, weight_profile
from prte.kernels import HGSpec, KernelSpec, conformal_eigenvalue, constants
from prte.scatter import (
    EPS_LADDER,
    AngularSpectrum,
    EigenTable,
    _graded_panels,
    _legendre_rows,
    analyze,
    apply_I_h,
    apply_scatter_projected,
    apply_scatter_spectral,
    apply_scatter_weak,
    basis_at_directions,
    circle_quadrature,
    funk_hecke_eigs,
    hs_norm,
    mode_count,
    plane_directions,
    polar_quadrature,
    sobolev_constant,
    sphere_integral_projected,
    sphere_quadrature,
    synthesize,
    weak_pairing,
)

SPEC2 = KernelSpec(d=2, s=0.25, b1=2.0**0.75)
SPEC3 = KernelSpec(d=3, s=0.5, b1=2.0**-0.5)

# projected-route fields carry slow power tails by construction; their
# truncation level is exactly what the accuracy gates below measure, so the
# boundary-leakage heads-up is redundant here
pytestmark = pytest.mark.filterwarnings("ignore::prte.errors.BoundaryLeakage")


def pole_vanishing_mode(d, l, dirs):
    """
    Normalized degree-l harmonic vanishing at the projection pole (the last
    coordinate axis), so its stereographic image decays instead of carrying a
    fat constant tail: d = 2 uses sin(l(phi - pi/2)), d = 3 the order-one
    sine harmonic (P_l^1(+-1) = 0).
    """
    dirs = np.asarray(dirs, dtype=float)
    if d == 2:
        phi = np.arctan2(dirs[..., 1], dirs[..., 0])
        return np.sin(l * (phi - np.pi / 2.0)) / np.sqrt(np.pi)
    ct = np.clip(dirs[..., 2], -1.0, 1.0)
    az = np.arctan2(dirs[..., 1], dirs[..., 0])
    c = np.sqrt(2.0) * np.sqrt((2 * l + 1) / (4.0 * np.pi) / (l * (l + 1)))
    return c * lpmv(1, l, ct) * np.sin(az)


def random_band_limited(quad, lmax, rng):
    coeffs = rng.standard_normal(mode_count(quad.d, lmax))
    return synthesize(AngularSpectrum(quad.d, lmax, coeffs), quad.nodes)


@pytest.fixture(scope="module")
def tab2():
    return funk_hecke_eigs(SPEC2, 8)


@pytest.fixture(scope="module")
def tab3():
    return funk_hecke_eigs(SPEC3, 8)


class TestSphereQuadrature:
    """Node layouts, exactness degrees, and validation."""

    def test_circle_nodes_and_weights(self):
        q = circle_quadrature(64)
        r = np.linalg.norm(q.nodes, axis=1)
        assert np.max(np.abs(r - 1.0)) < 1e-14
        assert abs(q.weights.sum() - 2.0 * np.pi) < 1e-12
        # trig exactness up to the stated degree, sharp at m
        phi = np.arctan2(q.nodes[:, 1], q.nodes[:, 0])
        for k in range(1, 64):
            v = np.sum(q.weights * np.cos(k * phi))
            assert abs(v) < 1e-10, f"cos({k} phi) integrates to {v:.2e}"
        aliased = np.sum(q.weights * np.cos(64 * phi))
        assert abs(aliased + 2.0 * np.pi) < 1e-10, "degree cap should be sharp"

    def test_polar_weight_sum(self):
        q = polar_quadrature(24)
        assert abs(q.weights.sum() - 4.0 * np.pi) < 1e-10
        r = np.linalg.norm(q.nodes, axis=1)
        assert np.max(np.abs(r - 1.0)) < 1e-14

    def test_legendre_exactness_d3(self):
        q = sphere_quadrature(3, 12)
        ct = q.nodes[:, 2]
        for k in range(1, q.degree + 1):
            v = np.sum(q.weights * eval_legendre(k, ct))
            assert abs(v) < 1e-10, f"P_{k} integrates to {v:.2e}"

    def test_gram_orthonormal(self):
        for d, m, tol in ((2, 64, 1e-12), (3, 16, 1e-10), (3, 24, 1e-13)):
            q = sphere_quadrature(d, m)
            b = basis_at_directions(d, q.nodes, q.lmax_cap())
            gram = b.T @ (q.weights[:, None] * b)
            err = np.max(np.abs(gram - np.eye(gram.shape[0])))
            assert err < tol, f"d={d}: gram deviation {err:.2e}"

    def test_too_few_nodes_raise(self):
        with pytest.raises(ParameterOutOfRange):
            circle_quadrature(3)
        with pytest.raises(ParameterOutOfRange):
            polar_quadrature(1)


def scipy_real_harmonics(dirs, lmax):
    """The real orthonormal basis in storage order, built from scipy's complex
    sph_harm_y (Condon-Shortley phase, undone by the (-1)^m factor)."""
    polar = np.arccos(np.clip(dirs[..., 2], -1.0, 1.0))
    azim = np.arctan2(dirs[..., 1], dirs[..., 0])
    cols = []
    for l in range(lmax + 1):
        block = [None] * (2 * l + 1)
        block[l] = sph_harm_y(l, 0, polar, azim).real
        for m in range(1, l + 1):
            cplx = np.sqrt(2.0) * (-1.0) ** m * sph_harm_y(l, m, polar, azim)
            block[l + m], block[l - m] = cplx.real, cplx.imag
        cols.extend(block)
    return np.stack(cols, axis=-1)


class TestRecurrences:
    """The Legendre and spherical-harmonic recurrences against scipy."""

    @pytest.mark.parametrize("s", [0.25, 0.5])
    def test_legendre_rows_on_graded_mesh(self, s):
        tau, _ = _graded_panels(2.0 ** (1.0 - s), 64)
        t = 1.0 - tau ** (1.0 / (1.0 - s))
        rows = _legendre_rows(64, t)
        ref = eval_legendre(np.arange(65)[:, None], t[None, :])
        err = np.max(np.abs(rows - ref))
        assert err < 1e-13, f"s={s}: Legendre rows off by {err:.2e}"

    def test_harmonics_against_sph_harm_y(self):
        rng = np.random.default_rng(5)
        dirs = rng.standard_normal((500, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        dirs = np.concatenate([dirs, poles, polar_quadrature(24).nodes])
        ours = basis_at_directions(3, dirs, 40)
        ref = scipy_real_harmonics(dirs, 40)
        err = np.max(np.abs(ours - ref)) / np.max(np.abs(ref))
        assert err < 1e-13, f"harmonics off by {err:.2e} relative"


class TestTransforms:
    """analyze/synthesize round trips and their guard rails."""

    @pytest.mark.parametrize("d,m,lmax", [(2, 128, 20), (3, 24, 10)])
    def test_round_trip(self, d, m, lmax):
        q = sphere_quadrature(d, m)
        rng = np.random.default_rng(7 * d)
        coeffs = rng.standard_normal(mode_count(d, lmax))
        u = synthesize(AngularSpectrum(d, lmax, coeffs), q.nodes)
        back = analyze(q, u, lmax)
        err = np.max(np.abs(back.coeffs - coeffs))
        assert err < 1e-10, f"d={d}: round-trip error {err:.2e}"

    def test_parseval(self):
        q = sphere_quadrature(3, 24)
        rng = np.random.default_rng(11)
        u = random_band_limited(q, 6, rng)
        node_norm = float(np.sum(q.weights * u**2))
        spec_norm = analyze(q, u, 6).norm2()
        assert abs(node_norm - spec_norm) < 1e-10 * node_norm

    def test_alias_cap_raises(self):
        q = sphere_quadrature(2, 16)
        with pytest.raises(ParameterOutOfRange):
            analyze(q, np.zeros(len(q.weights)), q.lmax_cap() + 1)


class TestEigenvalues:
    """Funk-Hecke table against closed forms and an independent oracle."""

    def test_linear_spectrum_d3(self, tab3):
        # d=3, s=1/2, b1=2^{-1/2}: lambda_l = -4 pi l exactly
        for l in range(1, 9):
            rel = abs(tab3.lambdas[l] + 4.0 * np.pi * l) / (4.0 * np.pi * l)
            assert rel < 1e-8, f"l={l}: rel error {rel:.2e}"

    @pytest.mark.parametrize("spec", [SPEC2, SPEC3], ids=["d2", "d3"])
    def test_conformal_closed_form(self, spec, tab2, tab3):
        tab = tab2 if spec.d == 2 else tab3
        cst = constants(spec)
        for l in range(9):
            mu = conformal_eigenvalue(spec.d, spec.s, l)
            ref = cst.D * (cst.c_bessel - mu)
            err = abs(tab.lambdas[l] - ref) / max(abs(ref), 1.0)
            assert err < 1e-6, f"l={l}: {tab.lambdas[l]} vs {ref}"

    def test_hg_geometric_spectrum_d3(self):
        g = 0.7
        tab = funk_hecke_eigs(HGSpec(SPEC3, g), 8)
        for l in range(1, 9):
            ref = -4.0 * np.pi * (1.0 - g**l) / (1.0 - g)
            rel = abs(tab.lambdas[l] - ref) / abs(ref)
            assert rel < 1e-8, f"l={l}: rel error {rel:.2e}"

    def test_adaptive_quadrature_oracle(self, tab2, tab3):
        # fold (G_l(t) - 1)/(1 - t) out of the weight so scipy's 'alg'
        # weighting handles the full endpoint singularity
        def cheb_diff(t, l):
            return -float(l * l) if t >= 1.0 else (eval_chebyt(l, t) - 1.0) / (1.0 - t)

        def leg_diff(t, l):
            return -0.5 * l * (l + 1.0) if t >= 1.0 else (eval_legendre(l, t) - 1.0) / (1.0 - t)

        for l in range(1, 9):
            val, _ = scipy_quad(cheb_diff, -1.0, 1.0, args=(l,), weight="alg",
                                wvar=(-0.5, -SPEC2.s), limit=200)
            lam = 2.0 * SPEC2.b1 * val
            rel = abs(lam - tab2.lambdas[l]) / abs(lam)
            assert rel < 1e-6, f"d=2 l={l}: rel error {rel:.2e}"

            val, _ = scipy_quad(leg_diff, -1.0, 1.0, args=(l,), weight="alg",
                                wvar=(0.0, -SPEC3.s), limit=200)
            lam = 2.0 * np.pi * SPEC3.b1 * val
            rel = abs(lam - tab3.lambdas[l]) / abs(lam)
            assert rel < 1e-6, f"d=3 l={l}: rel error {rel:.2e}"

    def test_generic_kernel_invariants(self):
        tab = funk_hecke_eigs(KernelSpec(d=3, s=0.3, b1=1.2), 12)
        assert tab.lambdas[0] == 0.0
        assert np.all(tab.lambdas[1:] < 0.0)
        assert np.all(np.diff(tab.lambdas) <= 1e-10 * np.abs(tab.lambdas).max())

    def test_table_validation(self):
        with pytest.raises(InvariantViolation):
            EigenTable(SPEC3, np.array([0.1, -1.0]))
        with pytest.raises(InvariantViolation):
            EigenTable(SPEC3, np.array([0.0, 1.0]))
        with pytest.raises(InvariantViolation):
            EigenTable(SPEC3, np.array([0.0, -2.0, -1.0]))

    def test_unconverged_quadrature_raises(self, monkeypatch):
        monkeypatch.setattr(scatter, "EIG_RTOL", 0.0)
        monkeypatch.setattr(scatter, "EIG_FAIL_TOL", 0.0)
        with pytest.raises(QuadratureNonConvergence):
            funk_hecke_eigs(SPEC3, 4)

    def test_negative_lmax_raises(self):
        with pytest.raises(ParameterOutOfRange):
            funk_hecke_eigs(SPEC3, -1)


class TestSpectralApplication:
    """Diagonal action on the coefficient vector."""

    def test_diagonal_multiplication(self, tab3):
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(mode_count(3, 8))
        spec = AngularSpectrum(3, 8, coeffs)
        out = apply_scatter_spectral(spec, tab3)
        ref = tab3.lambdas[spec.degrees()] * coeffs
        assert np.max(np.abs(out.coeffs - ref)) == 0.0
        assert out.coeffs[0] == 0.0, "mean mode must be annihilated"

    def test_short_table_raises(self, tab3):
        spec = AngularSpectrum(3, 9, np.zeros(mode_count(3, 9)))
        with pytest.raises(ParameterOutOfRange):
            apply_scatter_spectral(spec, tab3)


class TestRemainderApplication:
    """Quadrature application of the bounded kernel part."""

    def test_no_remainder_is_zero(self):
        q = sphere_quadrature(3, 12)
        u = np.sin(q.nodes[:, 0])
        assert np.all(apply_I_h(q, u, SPEC3) == 0.0)

    def test_constant_annihilated(self):
        spec = KernelSpec(d=3, s=0.5, b1=1.0, h=lambda z: 1.0 + 0.5 * z)
        q = sphere_quadrature(3, 12)
        out = apply_I_h(q, np.full(len(q.weights), 3.7), spec)
        assert np.max(np.abs(out)) < 1e-12

    def test_linear_remainder_eigenvalues(self):
        # b1 = 0, h = 1 + z/2: lambda_1 = 2 pi/3 - 4 pi, lambda_l = -4 pi after
        spec = KernelSpec(d=3, s=0.5, b1=0.0, h=lambda z: 1.0 + 0.5 * z)
        q = sphere_quadrature(3, 16)
        refs = {1: 2.0 * np.pi / 3.0 - 4.0 * np.pi, 2: -4.0 * np.pi, 5: -4.0 * np.pi}
        tab = funk_hecke_eigs(spec, 6)
        for l, ref in refs.items():
            rel = abs(tab.lambdas[l] - ref) / abs(ref)
            assert rel < 1e-8, f"table l={l}: rel {rel:.2e}"
            u = pole_vanishing_mode(3, l, q.nodes)
            out = apply_I_h(q, u, spec)
            err = np.max(np.abs(out - ref * u)) / np.max(np.abs(ref * u))
            assert err < 1e-10, f"apply l={l}: rel {err:.2e}"

    def test_l2_bound_holds_on_random_fields(self):
        spec = KernelSpec(d=3, s=0.5, b1=1.0, h=lambda z: (1.0 + z) ** 2)
        q = sphere_quadrature(3, 16)
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            u = random_band_limited(q, 6, rng)
            out = apply_I_h(q, u, spec)  # raises InvariantViolation on breach
            nu = np.sqrt(np.sum(q.weights * u**2))
            worst = max(worst, np.sqrt(np.sum(q.weights * out**2)) / nu)
        assert worst <= 2.0 * spec.h_l1, f"bound ratio {worst / (2 * spec.h_l1):.3f}"


class TestWeakForm:
    """Cutoff pairing and its extrapolated application."""

    def test_pairing_symmetric(self):
        q = sphere_quadrature(2, 64)
        rng = np.random.default_rng(5)
        u, psi = rng.standard_normal((2, len(q.weights)))
        a = weak_pairing(q, u, psi, SPEC2, 1e-2)
        b = weak_pairing(q, psi, u, SPEC2, 1e-2)
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0), f"{a} vs {b}"

    def test_pairing_annihilates_constants(self):
        q = sphere_quadrature(3, 12)
        rng = np.random.default_rng(6)
        psi = rng.standard_normal(len(q.weights))
        val = weak_pairing(q, np.ones_like(psi), psi, SPEC3, 1e-2)
        assert abs(val) < 1e-9, f"constant pairing {val:.2e}"

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_pairing_dissipative(self, seed):
        q = sphere_quadrature(2, 48)
        u = random_band_limited(q, 8, np.random.default_rng(seed))
        assert weak_pairing(q, u, u, SPEC2, 1e-3) <= 0.0

    def test_nonpositive_cutoff_raises(self):
        q = sphere_quadrature(2, 16)
        u = np.zeros(len(q.weights))
        with pytest.raises(ParameterOutOfRange):
            weak_pairing(q, u, u, SPEC2, 0.0)

    def test_application_d2(self, tab2):
        q = sphere_quadrature(2, 256)
        w = np.sqrt(q.weights)
        for l in range(1, 9):
            u = pole_vanishing_mode(2, l, q.nodes)
            out = apply_scatter_weak(q, u, SPEC2, lmax=8)
            ref = tab2.lambdas[l] * u
            rel = np.linalg.norm(w * (out - ref)) / np.linalg.norm(w * ref)
            assert rel < 1e-2, f"l={l}: rel {rel:.2e}"

    def test_application_d3_resolution_floor(self, tab3):
        # the polar mesh spacing bounds the effective cutoff from below
        # (1 - cos(pi/48) ~ 2e-3), so the two finest ladder rungs are not
        # resolved and the extrapolated application plateaus at a few percent
        q = sphere_quadrature(3, 48)
        w = np.sqrt(q.weights)
        for l in (1, 5):
            u = pole_vanishing_mode(3, l, q.nodes)
            out = apply_scatter_weak(q, u, SPEC3, lmax=8)
            ref = tab3.lambdas[l] * u
            rel = np.linalg.norm(w * (out - ref)) / np.linalg.norm(w * ref)
            assert rel < 0.10, f"l={l}: rel {rel:.2e}"

    def test_ladder_default(self):
        assert EPS_LADDER == (1e-2, 1e-3, 1e-4)


class TestProjectedRoute:
    """Stereographic plane form: exact structure, then accuracy."""

    def test_constants_annihilated_exactly(self):
        grid = PlaneGrid(2, 16, 256)
        out = apply_scatter_projected(PlaneField(grid, np.full(grid.shape, 3.7)), SPEC2)
        assert np.max(np.abs(out.values)) < 1e-10

    def test_mass_neutrality(self):
        grid = PlaneGrid(2, 16, 512)
        q = sphere_quadrature(2, 128)
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(mode_count(2, 10))
        u = synthesize(AngularSpectrum(2, 10, coeffs), plane_directions(grid))
        out = apply_scatter_projected(PlaneField(grid, u), SPEC2)
        total = sphere_integral_projected(out)
        scale = sphere_integral_projected(PlaneField(grid, np.abs(out.values)))
        assert abs(total) < 1e-12 * scale, f"mass {total:.2e} vs scale {scale:.2e}"

    def test_dissipative_on_random_fields(self):
        grid = PlaneGrid(2, 16, 512)
        rng = np.random.default_rng(9)
        dirs = plane_directions(grid)
        for _ in range(30):
            coeffs = rng.standard_normal(mode_count(2, 10))
            coeffs[0] = 0.0
            u = synthesize(AngularSpectrum(2, 10, coeffs), dirs)
            out = apply_scatter_projected(PlaneField(grid, u), SPEC2)
            form = sphere_integral_projected(PlaneField(grid, out.values * u))
            assert form < 0.0, f"quadratic form {form:.3e} not dissipative"

    def test_eigenfunction_action_d2(self, tab2):
        grid = PlaneGrid(2, 1024, 32768)
        dirs = plane_directions(grid)
        br = grid.bracket()
        mask = np.abs(grid.points()[:, 0]) <= 6.0
        for l in (1, 2, 5, 8):
            u = pole_vanishing_mode(2, l, dirs)
            out = apply_scatter_projected(PlaneField(grid, u), SPEC2).values
            ref = tab2.lambdas[l] * u * br**-1.0
            rel = np.linalg.norm((out - ref)[mask]) / np.linalg.norm(ref[mask])
            assert rel < 1e-2, f"l={l}: interior rel {rel:.2e}"

    def test_eigenfunction_action_d3(self, tab3):
        grid = PlaneGrid(3, 64, 1024)
        dirs = plane_directions(grid)
        br = grid.bracket()
        mask = np.sqrt(np.sum(grid.points() ** 2, axis=-1)) <= 6.0
        for l in (1, 2, 5, 8):
            u = pole_vanishing_mode(3, l, dirs)
            out = apply_scatter_projected(PlaneField(grid, u), SPEC3).values
            ref = tab3.lambdas[l] * u * br**-2.0
            rel = np.linalg.norm((out - ref)[mask]) / np.linalg.norm(ref[mask])
            assert rel < 1e-2, f"l={l}: interior rel {rel:.2e}"


class TestSeminorms:
    """Double-integral seminorm vs the projected-plane Gagliardo form."""

    def test_identity_d2(self, tab2):
        # D0 ||(-Lap)^{s/2} w||^2 = 2^{(d-1)/2+s-1} b1 S_dbl + D c_bessel ||u||^2
        q = sphere_quadrature(2, 512)
        grid = PlaneGrid(2, 1024, 32768)
        cst = constants(SPEC2)
        for l in (1, 3):
            u = pole_vanishing_mode(2, l, q.nodes)
            s_dbl, p_semi = hs_norm(q, u, SPEC2, grid)
            un2 = float(np.sum(q.weights * u**2))
            lhs = cst.D0 * p_semi
            rhs = 2.0 ** (0.5 + SPEC2.s - 1.0) * SPEC2.b1 * s_dbl + cst.D * cst.c_bessel * un2
            rel = abs(lhs - rhs) / abs(rhs)
            assert rel < 1e-3, f"l={l}: identity residual {rel:.2e}"

    def test_identity_d3_node_extrapolated(self):
        # the double node sum misses the below-spacing near-diagonal mass,
        # which scales as eps^{1-s} ~ 1/m here; one Richardson step in m
        # removes it
        grid = PlaneGrid(3, 48, 1024)
        cst = constants(SPEC3)
        l = 2
        sd = {}
        for m in (32, 48):
            q = sphere_quadrature(3, m)
            u = pole_vanishing_mode(3, l, q.nodes)
            sd[m], p_semi = hs_norm(q, u, SPEC3, grid, lmax=l + 2)
            un2 = float(np.sum(q.weights * u**2))
        assert sd[48] > sd[32], "missing near-diagonal mass should shrink with m"
        s_ext = sd[48] + (sd[48] - sd[32]) / (48.0 / 32.0 - 1.0)
        lhs = cst.D0 * p_semi
        rhs = 2.0 ** (1.0 + SPEC3.s - 1.0) * SPEC3.b1 * s_ext + cst.D * cst.c_bessel * un2
        rel = abs(lhs - rhs) / abs(rhs)
        assert rel < 5e-3, f"extrapolated identity residual {rel:.2e}"

    def test_sobolev_inequality(self):
        # ||w||_{L^4}^2 <= C(n, s) ||(-Lap)^{s/2} w||^2 with n = d - 1
        # (q = 2n/(n - 2s) = 4 for both parameter pairs)
        cases = [
            (SPEC2, sphere_quadrature(2, 256), PlaneGrid(2, 256, 8192)),
            (SPEC3, sphere_quadrature(3, 24), PlaneGrid(3, 48, 1024)),
        ]
        for spec, q, grid in cases:
            u = pole_vanishing_mode(spec.d, 1, q.nodes)
            _, p_semi = hs_norm(q, u, spec, grid, lmax=3)
            spectrum = analyze(q, u, 3)
            w = synthesize(spectrum, plane_directions(grid)) * weight_profile(grid, spec.s)
            l4 = float((grid.cell_volume() * np.sum(w**4)) ** 0.5)
            bound = sobolev_constant(spec.d - 1, spec.s) * p_semi
            assert l4 <= bound, f"d={spec.d}: {l4:.6f} > {bound:.6f}"

    def test_sobolev_constant_validation(self):
        with pytest.raises(ParameterOutOfRange):
            sobolev_constant(1, 0.5)
