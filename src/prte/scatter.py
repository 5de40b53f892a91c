"""
The angular scattering operator in three mutually validating forms.

Every admissible kernel depends only on the deflection cosine z = theta.theta',
so the operator I(u) = int (u' - u) b(z) dtheta' acts diagonally on circular
modes (d = 2) or spherical harmonics (d = 3).  The module provides

``funk_hecke_eigs``
    the eigenvalue table lambda_l by graded-mesh quadrature of the convergent
    difference form (G_l(t) - 1) b(t) against the sphere measure;
``apply_scatter_spectral`` / ``analyze`` / ``synthesize``
    application in the diagonal basis;
``PlaneOperator`` / ``apply_scatter_projected``
    the stereographic route: the singular part of I becomes a weighted plane
    fractional Laplacian, discretized so that constants are annihilated and
    mass is conserved exactly (the same spectral operator appears in both
    terms and is self-adjoint on the lattice); the projected-plane marcher
    steps and accounts with the same batched ``PlaneOperator``;
``weak_pairing`` / ``apply_scatter_weak``
    the cutoff weak form -1/2 iint (u'-u)(psi'-psi) b, Richardson-extrapolated
    in the cutoff;
``hs_norm``
    the sphere double-integral seminorm together with its projected-plane
    counterpart ||(-Lap)^{s/2} w_J||^2 (``PlaneOperator.seminorm_sq``).

The three routes share no discretization machinery, which is what makes their
agreement on band-limited fields a meaningful oracle.

The special functions are built here by recurrence: the d = 3 real spherical
harmonics from the normalized associated-Legendre recurrence
(``_real_harmonics_d3``) and the Legendre rows of the Funk-Hecke quadrature
from Bonnet's recurrence (``_legendre_rows``); Gauss rules come from numpy.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    InvariantViolation,
    ParameterOutOfRange,
    QuadratureNonConvergence,
)
from . import fracop
from .fracop import PlaneField, _values
from .geom import check_dimension, direction_cosines, sphere_area, unproject
from .kernels import HGSpec, constants, hg_rescaled, limiting_kernel

#: nonincreasing-eigenvalue slack, relative to the largest magnitude
EIG_MONOTONE_TOL = 1.0e-10
#: `funk_hecke_eigs` stops refining once the eigenvalues move by at most
#: EIG_RTOL relative, and fails if they still move by more than EIG_FAIL_TOL
EIG_RTOL = 1e-8
EIG_FAIL_TOL = 1e-6
#: Gauss-Legendre nodes per panel of the Funk-Hecke quadrature
PANEL_NODES = 16


# ---------------------------------------------------------------------------
# sphere quadratures and the harmonic basis


@dataclass(frozen=True)
class SphereQuadrature:
    """
    Quadrature nodes and weights on S^{d-1}.

    d = 2: uniform angles, shifted half a step off the poles.
    d = 3: Gauss-Legendre in the polar cosine times uniform azimuth.
    degree is the spherical-polynomial exactness; transforms alias-cap
    lmax at degree // 2.
    """

    d: int
    nodes: np.ndarray
    weights: np.ndarray
    degree: int

    def __post_init__(self):
        check_dimension(self.d)
        total = self.weights.sum()
        if abs(total - sphere_area(self.d)) > 1e-10 * sphere_area(self.d):
            raise InvariantViolation(
                f"weights sum to {total}, expected {sphere_area(self.d)}"
            )

    def __len__(self):
        return len(self.weights)

    def lmax_cap(self):
        return self.degree // 2


def circle_quadrature(m):
    """Uniform m-point rule on the circle, exact through mode degree m - 1."""
    if m < 4:
        raise ParameterOutOfRange(f"need at least 4 angles, got {m}")
    phi = 2.0 * np.pi * (np.arange(m) + 0.5) / m
    nodes = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    weights = np.full(m, 2.0 * np.pi / m)
    return SphereQuadrature(d=2, nodes=nodes, weights=weights, degree=m - 1)


def polar_quadrature(m_polar, m_azimuth=None):
    """Gauss-Legendre polar x uniform azimuth product rule on S^2."""
    if m_polar < 2:
        raise ParameterOutOfRange(f"need at least 2 polar nodes, got {m_polar}")
    if m_azimuth is None:
        m_azimuth = 2 * m_polar
    t, tw = leggauss(m_polar)
    phi = 2.0 * np.pi * np.arange(m_azimuth) / m_azimuth
    st = np.sqrt(1.0 - t**2)
    nodes = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(t, np.ones(m_azimuth)).ravel(),
        ],
        axis=-1,
    )
    weights = np.outer(tw, np.full(m_azimuth, 2.0 * np.pi / m_azimuth)).ravel()
    return SphereQuadrature(
        d=3, nodes=nodes, weights=weights, degree=min(2 * m_polar - 1, m_azimuth - 1)
    )


def sphere_quadrature(d, m):
    """m angles on the circle, or m polar x 2m azimuthal nodes on S^2."""
    check_dimension(d)
    return circle_quadrature(m) if d == 2 else polar_quadrature(m)


def mode_count(d, lmax):
    return 2 * lmax + 1 if d == 2 else (lmax + 1) ** 2


def mode_degrees(d, lmax):
    """The degree l carried by each basis column, in storage order."""
    if d == 2:
        out = [0]
        for l in range(1, lmax + 1):
            out += [l, l]
        return np.array(out)
    return np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)


def _real_harmonics_d3(dirs, lmax):
    """
    Real orthonormal spherical harmonics evaluated at unit vectors, degree l
    in columns l^2 .. l^2 + 2l: sqrt(2) P_l^m(cos th) sin(m ph) for m = l..1,
    P_l^0(cos th), then sqrt(2) P_l^m(cos th) cos(m ph) for m = 1..l.  The
    P_l^m are the orthonormalized associated Legendre functions without the
    Condon-Shortley phase, built by the three-term recurrence in l at fixed
    m from the sectoral P_m^m (as in SHTns).
    """
    z = np.clip(dirs[..., 2], -1.0, 1.0)
    sin_th = np.sqrt((1.0 - z) * (1.0 + z))
    azim = np.arctan2(dirs[..., 1], dirs[..., 0])
    out = np.empty(z.shape + ((lmax + 1) ** 2,))
    p_mm = np.full(z.shape, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(lmax + 1):
        if m:
            p_mm = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_th * p_mm
            cos_m = np.sqrt(2.0) * np.cos(m * azim)
            sin_m = np.sqrt(2.0) * np.sin(m * azim)
        prev, cur = 0.0, p_mm
        for l in range(m, lmax + 1):
            if l > m:
                a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                prev, cur = cur, a * (z * cur - b * prev)
            if m:
                out[..., l * l + l + m] = cur * cos_m
                out[..., l * l + l - m] = cur * sin_m
            else:
                out[..., l * l + l] = cur
    return out


def sectoral_harmonic(dirs, l):
    """
    Column l^2 of basis_at_directions(3, dirs, l), sqrt(2) P_l^l(cos th)
    sin(l ph) (the constant at l = 0), by `_real_harmonics_d3`'s recurrence
    without the other columns: O(len(dirs) * l) time, O(len(dirs)) memory.
    Once P_m^m has underflowed to 0 at every direction it stays 0, so the
    recurrence stops there.
    """
    dirs = np.asarray(dirs, dtype=float)
    z = np.clip(dirs[..., 2], -1.0, 1.0)
    sin_th = np.sqrt((1.0 - z) * (1.0 + z))
    p_mm = np.full(z.shape, 1.0 / np.sqrt(4.0 * np.pi))
    for m in range(1, l + 1):
        p_mm = np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_th * p_mm
        if not p_mm.any():
            break
    if l == 0:
        return p_mm
    return p_mm * (np.sqrt(2.0) * np.sin(l * np.arctan2(dirs[..., 1], dirs[..., 0])))


def basis_at_directions(d, dirs, lmax):
    """Orthonormal real basis (circular modes / spherical harmonics), (N, K)."""
    dirs = np.asarray(dirs, dtype=float)
    if d == 2:
        phi = np.arctan2(dirs[..., 1], dirs[..., 0])
        cols = [np.full(phi.shape, 1.0 / np.sqrt(2.0 * np.pi))]
        for l in range(1, lmax + 1):
            cols.append(np.cos(l * phi) / np.sqrt(np.pi))
            cols.append(np.sin(l * phi) / np.sqrt(np.pi))
        return np.stack(cols, axis=-1)
    return _real_harmonics_d3(dirs, lmax)


@dataclass
class AngularSpectrum:
    """Coefficients in the orthonormal angular basis, degrees 0..lmax."""

    d: int
    lmax: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        expected = mode_count(self.d, self.lmax)
        if self.coeffs.shape != (expected,):
            raise ParameterOutOfRange(
                f"expected {expected} coefficients for lmax={self.lmax}, "
                f"got shape {self.coeffs.shape}"
            )

    def degrees(self):
        return mode_degrees(self.d, self.lmax)

    def norm2(self):
        """L^2(S^{d-1}) squared norm of the synthesized field (Parseval)."""
        return float(np.sum(self.coeffs**2))


def analyze(quad, values, lmax):
    """Forward transform: project node values onto the basis, alias-capped."""
    if lmax > quad.lmax_cap():
        raise ParameterOutOfRange(
            f"lmax {lmax} exceeds alias cap {quad.lmax_cap()} of this quadrature"
        )
    b = basis_at_directions(quad.d, quad.nodes, lmax)
    return AngularSpectrum(quad.d, lmax, b.T @ (quad.weights * values))


def synthesize(spectrum, dirs):
    """Evaluate the band-limited field at arbitrary unit vectors."""
    dirs = np.asarray(dirs, dtype=float)
    flat = dirs.reshape(-1, dirs.shape[-1])
    out = np.empty(flat.shape[0])
    # block so the basis matrix never exceeds ~16M doubles even at full
    # spherical-harmonic band width on multi-million-point lattices
    block = max(1, (1 << 24) // max(1, len(spectrum.coeffs)))
    for start in range(0, flat.shape[0], block):
        sl = slice(start, min(start + block, flat.shape[0]))
        b = basis_at_directions(spectrum.d, flat[sl], spectrum.lmax)
        out[sl] = b @ spectrum.coeffs
    return out.reshape(dirs.shape[:-1])


# ---------------------------------------------------------------------------
# Funk-Hecke eigenvalues


def _kernel_on(kernel, z):
    if isinstance(kernel, HGSpec):
        return hg_rescaled(kernel, z)
    return limiting_kernel(kernel, z)


@dataclass(frozen=True)
class EigenTable:
    """Funk-Hecke eigenvalues lambda_0..lambda_lmax of a scattering kernel."""

    kernel: object
    lambdas: np.ndarray = field(repr=False)

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        object.__setattr__(self, "lambdas", lam)
        if lam[0] != 0.0:
            raise InvariantViolation(f"lambda_0 must be exactly 0, got {lam[0]}")
        if len(lam) > 1:
            slack = EIG_MONOTONE_TOL * np.abs(lam).max()
            if np.any(lam[1:] >= 0.0):
                raise InvariantViolation("lambda_l must be negative for l >= 1")
            if np.any(np.diff(lam) > slack):
                raise InvariantViolation("lambda_l must be nonincreasing in l")

    @property
    def lmax(self):
        return len(self.lambdas) - 1


def _graded_panels(upper, n_panels):
    """Composite Gauss-Legendre nodes/weights on (0, upper) split uniformly."""
    gq, gw = leggauss(PANEL_NODES)
    edges = np.linspace(0.0, upper, n_panels + 1)
    a = edges[:-1, None]
    bw = (edges[1:, None] - a) / 2.0
    nodes = (a + bw + bw * gq[None, :]).ravel()
    wts = (bw * gw[None, :]).ravel()
    return nodes, wts


def _legendre_rows(lmax, t):
    """P_0(t) .. P_lmax(t), one row per degree, by the Bonnet recurrence
    (l + 1) P_{l+1} = (2l + 1) t P_l - l P_{l-1}."""
    rows = np.empty((lmax + 1,) + t.shape)
    rows[0] = 1.0
    if lmax:
        rows[1] = t
    for l in range(1, lmax):
        rows[l + 1] = ((2 * l + 1) * t * rows[l] - l * rows[l - 1]) / (l + 1)
    return rows


def _eig_integral(kernel, lmax, n_panels):
    """All lambda_l on one graded mesh; the grading exponent flattens the
    (1-t)^{-alpha} endpoint so plain Gauss panels converge spectrally.  A
    kernel whose integrals overflow is a parameter out of range."""
    d, s = kernel.base.d, kernel.base.s
    ell = np.arange(lmax + 1)[:, None]
    if d == 2:
        # 2 int_0^pi (cos(l phi) - 1) b(cos phi) dphi,  phi = sigma^{1/(1-s)}
        sig, wts = _graded_panels(np.pi ** (1.0 - s), n_panels)
        phi = sig ** (1.0 / (1.0 - s))
        jac = phi / (sig * (1.0 - s))
        bvals = _kernel_on(kernel, np.cos(phi))
        rows, ring = np.cos(ell * phi[None, :]) - 1.0, 2.0
    else:
        # 2 pi int_{-1}^{1} (P_l(t) - 1) b(t) dt,  1 - t = tau^{1/(1-s)}
        tau, wts = _graded_panels(2.0 ** (1.0 - s), n_panels)
        t = 1.0 - tau ** (1.0 / (1.0 - s))
        jac = (1.0 - t) / (tau * (1.0 - s))
        bvals = _kernel_on(kernel, t)
        rows, ring = _legendre_rows(lmax, t) - 1.0, 2.0 * np.pi
    lam = ring * np.sum(rows * (bvals * jac * wts)[None, :], axis=1)
    if not np.all(np.isfinite(lam)):
        raise ParameterOutOfRange(
            f"the kernel's Funk-Hecke integrals are not finite on {n_panels} panels"
        )
    return lam


def funk_hecke_eigs(kernel, lmax):
    """
    EigenTable by graded-mesh quadrature, panel count doubled until the
    eigenvalues move by less than EIG_RTOL relative; QuadratureNonConvergence
    if they still move by more than EIG_FAIL_TOL at the refinement cap.
    """
    if lmax < 0:
        raise ParameterOutOfRange(f"need lmax >= 0, got {lmax}")
    panels = max(8, lmax // 2)
    prev = _eig_integral(kernel, lmax, panels)
    change = np.inf
    while panels <= 1024:
        panels *= 2
        cur = _eig_integral(kernel, lmax, panels)
        scale = np.abs(cur).max() or 1.0
        change = np.abs(cur - prev).max() / scale
        prev = cur
        if change <= EIG_RTOL:
            break
    if change > EIG_FAIL_TOL:
        raise QuadratureNonConvergence(
            f"eigenvalue quadrature still moving by {change:.2e} at {panels} panels"
        )
    prev[0] = 0.0
    return EigenTable(kernel=kernel, lambdas=prev)


def apply_scatter_spectral(spectrum, eigs):
    """Multiply each coefficient by the eigenvalue of its degree."""
    if eigs.lmax < spectrum.lmax:
        raise ParameterOutOfRange(
            f"eigenvalue table stops at l={eigs.lmax}, spectrum needs {spectrum.lmax}"
        )
    lam = eigs.lambdas[spectrum.degrees()]
    return AngularSpectrum(spectrum.d, spectrum.lmax, lam * spectrum.coeffs)


# ---------------------------------------------------------------------------
# projected-plane route


class PlaneOperator:
    """
    The plane part of the projected route on one lattice, acting on the
    trailing grid axes of a batch: core(f) = f B w_0 - B (f w_0), B the
    lattice spectral (-Lap)^s, and seminorm_sq(f) = ||(-Lap)^{s/2} (f w_0)||^2
    per leading index, by Parseval on the rfftn half-spectrum.
    """

    def __init__(self, grid, s):
        self.axes = tuple(range(-grid.ndim, 0))
        self.w0 = fracop.weight_profile(grid, s)
        with warnings.catch_warnings():
            # w_0's tail at the boundary is part of the operator, not a field
            # that leaks.  The function is looked up on fracop at call time,
            # so that a wrapper installed on that module sees this call.
            warnings.simplefilter("ignore")
            self.bw0 = fracop.frac_lap_spectral(grid, self.w0, s)
        self.mult = fracop.lattice_k2(grid.freq(), grid.ndim) ** s
        parseval = fracop.parseval_weights(grid.n, grid.ndim, grid.cell_volume())
        self.hs_weight = (self.mult[..., : grid.n // 2 + 1] * parseval).ravel()

    def core(self, f):
        spec = np.fft.fftn(f * self.w0, axes=self.axes)
        return f * self.bw0 - np.fft.ifftn(self.mult * spec, axes=self.axes).real

    def seminorm_sq(self, f, scratch=None, spec=None):
        """
        `scratch` (float, f's shape) and `spec` (complex, the rfftn
        half-spectrum's shape), when given, are C-ordered arrays whose bytes
        hold the temporaries; f is never written.
        """
        fw = np.multiply(f, self.w0, out=scratch)
        spec = np.fft.rfftn(fw, axes=self.axes, out=spec)
        # fw is consumed: the power takes its bytes, and the imaginary parts'
        # squares take the real parts' place
        power = np.square(spec.real, out=fw.reshape(-1)[: spec.size].reshape(spec.shape))
        power += np.square(spec.imag, out=spec.real)
        per = power.reshape(-1, self.hs_weight.size) @ self.hs_weight
        return per.reshape(f.shape[: f.ndim - len(self.axes)])


def apply_scatter_projected(u_plane, spec):
    """
    The singular b(1)-part of the scattering operator through stereographic
    projection: for u_J on the plane grid, returns [I(u)]_J / <v>^{d-1},

        D <v>^{2s} ( u_J . B w_0 - B (u_J w_0) ),   w_0 = <v>^{-(d-1-2s)},

    where B is the lattice spectral fractional Laplacian.  Using the same
    discrete B in both terms makes constants map to exactly zero and, since B
    is self-adjoint on the lattice, makes the discrete sphere integral of the
    output vanish to roundoff (mass neutrality).  The smooth remainder part of
    the kernel is handled separately by apply_I_h on sphere values.
    """
    grid, uj = u_plane.grid, _values(u_plane)
    s = spec.s
    op = PlaneOperator(grid, s)
    fracop._check_leakage(grid, uj * op.w0, "apply_scatter_projected")
    out = constants(spec).D * grid.bracket() ** (2.0 * s) * op.core(uj)
    return PlaneField(grid, out)


def sphere_integral_projected(field):
    """Discrete integral over S^{d-1} of a projected field [F]_J / <v>^{d-1}."""
    grid = field.grid
    br = grid.bracket()
    dm1 = grid.d - 1
    return float(
        2.0**dm1 * grid.cell_volume() * np.sum(_values(field) * br ** (-dm1))
    )


def plane_directions(grid):
    """Unit vectors J(v) for every lattice point."""
    return unproject(grid.points(), grid.d)


# ---------------------------------------------------------------------------
# smooth-remainder application and the weak form


def apply_I_h(quad, u, spec):
    """
    Quadrature application of the bounded remainder part,
    I_h(u)(theta_i) = sum_j w_j (u_j - u_i) h(theta_i . theta_j).

    The L2 bound ||I_h u|| <= 2 h_l1 ||u|| is asserted on every call.
    """
    u = np.asarray(u, dtype=float)
    if spec.h is None:
        return np.zeros_like(u)
    z = direction_cosines(quad.nodes)
    hmat = spec.remainder(z)
    wu = quad.weights * u
    out = hmat @ wu - (hmat @ quad.weights) * u
    nu = np.sqrt(np.sum(quad.weights * u**2))
    nout = np.sqrt(np.sum(quad.weights * out**2))
    if nout > 2.0 * spec.h_l1 * nu * (1.0 + 1e-12) + 1e-300:
        raise InvariantViolation(
            f"remainder application norm {nout:.3e} exceeds 2 h_l1 ||u|| = "
            f"{2.0 * spec.h_l1 * nu:.3e}"
        )
    return out


def _pairing_matrix(quad, spec, eps):
    """w_i w_j b(z_ij) masked to 1 - z >= eps (diagonal excluded)."""
    z = direction_cosines(quad.nodes)
    mask = (1.0 - z) >= eps
    zsafe = np.where(mask, z, -1.0)
    bz = np.where(mask, _kernel_on(spec, zsafe), 0.0)
    return (quad.weights[:, None] * quad.weights[None, :]) * bz


def weak_pairing(quad, u, psi, spec, eps):
    """
    The cutoff weak form <I(u), psi>:
    -1/2 iint_{1 - z >= eps} (u'-u)(psi'-psi) b(z); symmetric in (u, psi).
    """
    if eps <= 0.0:
        raise ParameterOutOfRange(f"need eps > 0, got {eps}")
    u = np.asarray(u, dtype=float)
    psi = np.asarray(psi, dtype=float)
    m = _pairing_matrix(quad, spec, eps)
    row = m.sum(axis=1)
    return float(u @ (m @ psi) - np.sum(row * u * psi))


#: cutoff ladder for extrapolating the weak form to eps -> 0
EPS_LADDER = (1e-2, 1e-3, 1e-4)


def apply_scatter_weak(quad, u, spec, lmax):
    """
    Apply I through the weak form alone: pair u against every basis function
    on the cutoff ladder EPS_LADDER, extrapolate each coefficient to
    eps -> 0, and synthesize.  Returns values on the quadrature nodes.
    """
    s = spec.base.s
    if lmax > quad.lmax_cap():
        raise ParameterOutOfRange(
            f"lmax {lmax} exceeds alias cap {quad.lmax_cap()}"
        )
    u = np.asarray(u, dtype=float)
    basis = basis_at_directions(quad.d, quad.nodes, lmax)
    per_eps = []
    for eps in EPS_LADDER:
        m = _pairing_matrix(quad, spec, eps)
        row = m.sum(axis=1)
        coeffs = u @ (m @ basis) - ((row * u) @ basis)
        per_eps.append(coeffs)
    # one Richardson step on the finest pair; truncation is O(eps^{1-s})
    r = (EPS_LADDER[-2] / EPS_LADDER[-1]) ** (1.0 - s)
    coeffs = per_eps[-1] + (per_eps[-1] - per_eps[-2]) / (r - 1.0)
    # discrete Gram correction: the basis is orthonormal only up to exactness
    gram_diag = np.sum(quad.weights[:, None] * basis**2, axis=0)
    return basis @ (coeffs / gram_diag)


# ---------------------------------------------------------------------------
# H^s norm machinery


def hs_norm(quad, u, spec, grid, lmax=None):
    """
    The pair of s-order angular seminorms:

      s_dbl = iint (u(theta') - u(theta))^2 / |theta' - theta|^{d-1+2s}
      p_semi = ||(-Lap)^{s/2} w_J||^2_{L2(plane)},  w_J = u_J <v>^{-(d-1-2s)}

    computed by entirely separate routes (double node sum vs the marcher's
    PlaneOperator.seminorm_sq after band-limited synthesis onto the lattice).
    The plane route needs u to vanish at the projection pole for its tail to
    fit the box; otherwise the result inherits a BoundaryLeakage-scale error.

    ``lmax`` is the synthesis band limit for the plane route.  It defaults to
    the full alias cap in d = 2 but is clamped to 16 in d = 3, where the
    harmonic basis on a multi-million-point lattice grows as (lmax + 1)^2
    columns; pass it explicitly for wider-band fields.
    """
    s = spec.base.s
    u = np.asarray(u, dtype=float)
    z = direction_cosines(quad.nodes)
    chord2 = 2.0 * (1.0 - z)
    np.fill_diagonal(chord2, 1.0)  # diagonal carries (u_i - u_i)^2 = 0
    kern = chord2 ** (-(quad.d - 1.0 + 2.0 * s) / 2.0)
    np.fill_diagonal(kern, 0.0)
    diff2 = (u[:, None] - u[None, :]) ** 2
    s_dbl = float(
        np.sum((quad.weights[:, None] * quad.weights[None, :]) * diff2 * kern)
    )
    if lmax is None:
        lmax = quad.lmax_cap() if quad.d == 2 else min(quad.lmax_cap(), 16)
    spectrum = analyze(quad, u, lmax)
    uj = synthesize(spectrum, plane_directions(grid))
    op = PlaneOperator(grid, s)
    fracop._check_leakage(grid, uj * op.w0, "hs_norm")
    return s_dbl, float(op.seminorm_sq(uj))


def sobolev_constant(n, s):
    """
    The sharp constant C in ||f||^2_{L^{2n/(n-2s)}} <= C ||(-Lap)^{s/2} f||^2
    on R^n (attained by the <v>-power bubble profiles).
    """
    if not (0.0 < 2.0 * s < n):
        raise ParameterOutOfRange(f"need 0 < 2s < n, got s={s}, n={n}")
    return (
        2.0 ** (-2.0 * s)
        * np.pi ** (-s)
        * math.gamma((n - 2.0 * s) / 2.0)
        / math.gamma((n + 2.0 * s) / 2.0)
        * (math.gamma(float(n)) / math.gamma(n / 2.0)) ** (2.0 * s / n)
    )
