"""
Strang-split integrator for the kinetic transport equation on a periodic box.

The splitting alternates exact spectral free streaming (FFT phase multipliers
per angular node, unitary and mass-exact) with angular scattering in one of
two backends:

``sphere-spectral``
    exact exponential integrator in the Funk-Hecke eigenbasis; unconditionally
    stable, mass-exact, L2-monotone by construction;
``projected-plane``
    classical RK4 on the stereographic plane representation of the operator,
    with an empirical spectral-radius time-step bound, a two-thirds angular
    de-aliasing filter, and per-node exact mass restoration.  That substep
    is linear and the same for every row, so for a fixed dt it is one
    n_nodes x n_nodes matrix M, built once per dt by pushing the identity
    through the RK4 code, and every batch is stepped as values @ M.  M holds
    n_nodes**2 doubles and costs 2 n_nodes flops a value, against a few plane
    FFTs for RK4, so the map serves planes of at most MAP_MAX_NODES = 4096
    nodes (a d = 3 64^2 plane, 128 MiB), the largest measured; a larger
    plane is stepped by the RK4 code itself.  The plane operator and H^s
    seminorm are those of `apply_scatter_projected` and `hs_norm`, one
    `scatter.PlaneOperator`.

Both backends are real-linear and the same at every x, so the whole step
commutes with the spatial Fourier transform, and `run` marches in Fourier
space.  Between emits its state is the rfftn spectrum over the space axes,
angular nodes last.  Streaming by dt/2 is one multiplier table H built per
run: H = (E + conj(E[-k])) / 2 with E = exp(-i theta.k dt/2) on the fftfreq
grid.  H equals E off the Nyquist planes; on them it is the fold that taking
the real part of the inverse transform applies, cos((theta.k_N) dt/2) times
the phase of the other components (see `_transport_table`).  The two
half-steps that meet between consecutive steps fuse into one multiply by
H*H.  Scattering acts on the spectrum's real and imaginary parts as one real
batch of rows, each weighted by its Parseval weight where physical-space
calls weight every row by the cell volume.  The per-step checks read the
spectrum (mass from the k = 0 row, where H = 1; L2 by Parseval), and the last
half-step and irfftn run only when a diagnostics row or a snapshot needs
physical values.  `transport_step` and `strang_step_energy` are one-step
wrappers over the same table and kernel.  A study that needs the state after
every step subscribes to `run` through its `observe` argument instead of
marching again.  Each `run`, and each one-step call, builds its own
scattering engine, which lives as long as that call.

Energy accounting: both time integrals entering the L2-vs-H^s energy
inequality are accumulated from the same per-mode closed forms inside the
scattering substep (the transport substep is unitary, so the full-step L2
drop equals the scattering drop exactly).  The recorded interval residual is
then a sum of structurally nonnegative per-mode terms, and vanishes at
roundoff for a pure power-law kernel.
"""

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    InvariantViolation,
    ParameterOutOfRange,
    StabilityViolation,
    UnknownKind,
)
from .fracop import PlaneGrid, half_multiplicity
from .kernels import HGSpec, KernelSpec, conformal_eigenvalue, constants
from .scatter import (
    PlaneOperator,
    SphereQuadrature,
    basis_at_directions,
    funk_hecke_eigs,
    mode_degrees,
)

SNAPSHOT_MAGIC = b"PRTE"
SNAPSHOT_VERSION = 1
#: magic, then version, d, m and the angular count as uint32, then the time
SNAPSHOT_HEADER_BYTES = 4 + 4 * 4 + 8
DIAGNOSTICS_HEADER = "time,mass,l2,linf,hs_integral,energy_residual"

#: relative per-step slack for the L2 monotonicity assertion
L2_STEP_TOL = 1e-10
#: relative mass-drift budget over a full run
MASS_TOL = 1e-8
#: post-step growth that trips the projected-backend stability check
GROWTH_TOL = 1e-8


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic torus [0, X)^d sampled on m points per axis."""

    d: int
    X: float
    m: int

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ParameterOutOfRange(f"need d in {{2, 3}}, got {self.d}")
        if not (np.isfinite(self.X) and self.X > 0.0):
            raise ParameterOutOfRange(f"need finite X > 0, got {self.X}")
        if self.m < 2 or self.m & (self.m - 1):
            raise ParameterOutOfRange(f"need m a power of two >= 2, got {self.m}")

    def spacing(self):
        return self.X / self.m

    def cell_volume(self):
        return (self.X / self.m) ** self.d

    def axis(self):
        """Coordinates along one axis."""
        return self.X * np.arange(self.m) / self.m

    def wavenumbers(self):
        """Angular wavenumbers 2 pi k / X along one axis, FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.m, d=self.spacing())

    @property
    def shape(self):
        return (self.m,) * self.d


@dataclass(frozen=True)
class ProjectedAngularGrid:
    """
    Angular discretization of the projected-plane backend: the sphere seen
    through the stereographic lattice.  Nodes are the unprojected lattice
    points; weights are the pushforward measure 2^{d-1} h^{d-1} <v>^{-2(d-1)}.
    Unlike a SphereQuadrature the weights sum to the sphere area only up to
    the truncated tail beyond the box (the halo deficit).
    """

    plane: PlaneGrid
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        from .geom import unproject

        pts = self.plane.points().reshape(-1, self.plane.ndim)
        object.__setattr__(self, "nodes", unproject(pts, self.plane.d))
        br = self.plane.bracket().reshape(-1)
        dm1 = self.plane.ndim
        w = 2.0**dm1 * self.plane.cell_volume() * br ** (-2.0 * dm1)
        object.__setattr__(self, "weights", w)

    @property
    def d(self):
        return self.plane.d


@dataclass
class PhaseField:
    """u(t, x, theta) sampled on spatial grid x angular nodes."""

    spatial: SpatialGrid
    angular: object
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = self.spatial.shape + (len(self.angular.weights),)
        if self.values.shape != expected:
            raise ParameterOutOfRange(
                f"values shape {self.values.shape} != spatial x angular {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvariantViolation("phase field contains non-finite values")

    def copy(self):
        return PhaseField(self.spatial, self.angular, self.values.copy(), self.time)

    def mass(self):
        w = self.angular.weights
        return float(self.spatial.cell_volume() * np.sum(self.values @ w))

    def l2(self):
        w = self.angular.weights
        return float(
            np.sqrt(self.spatial.cell_volume() * np.sum((self.values**2) @ w))
        )

    def linf(self):
        return float(np.max(np.abs(self.values)))

    def min_value(self):
        return float(np.min(self.values))


@dataclass(frozen=True)
class SolverConfig:
    """Time-integration parameters; backend selects the scattering engine."""

    kernel: object
    dt: float
    t_end: float
    lmax: int
    backend: str = "sphere-spectral"
    snapshot_every: int = 0
    diagnostics_every: int = 1

    def __post_init__(self):
        if self.backend not in ("sphere-spectral", "projected-plane"):
            raise UnknownKind(
                f"backend {self.backend!r}; use sphere-spectral or projected-plane"
            )
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ParameterOutOfRange(f"need finite dt > 0, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ParameterOutOfRange(f"need finite t_end >= dt, got {self.t_end}")
        if self.lmax < 1:
            raise ParameterOutOfRange(f"need lmax >= 1, got {self.lmax}")
        if self.snapshot_every < 0 or self.diagnostics_every < 1:
            raise ParameterOutOfRange("invalid snapshot/diagnostics cadence")


@dataclass
class DiagnosticsRecord:
    time: float
    mass: float
    l2: float
    linf: float
    hs_integral: float
    energy_residual: float
    rho_sobolev: Optional[float] = None


# ---------------------------------------------------------------------------
# transport in the spatial-Fourier layout


def _to_spectrum(u):
    """rfftn over the space axes; the angular nodes stay the last axis."""
    return np.fft.rfftn(u.values, axes=tuple(range(u.spatial.d)))


def _to_values(spatial, spec):
    return np.fft.irfftn(spec, s=spatial.shape, axes=tuple(range(spatial.d)))


def _transport_table(spatial, angular, tau):
    """
    Free streaming over tau as one multiplier on the rfftn half-spectrum.

    Streaming multiplies the full spectrum by E = exp(-i theta.k tau), k on
    the fftfreq grid, and the real part of the inverse transform then folds
    that to H = (E + conj(E[-k])) / 2, where E[-k] is E at the indices
    negated mod m.  Off the Nyquist planes H = E.  On them a Nyquist index is
    its own negation, so H = exp(-i theta.k' tau) cos(theta.k'' tau), with k'
    the wavevector with its Nyquist components zeroed and k'' = k - k'.  At
    the doubly-Nyquist bins that is cos((theta_x + theta_y) k_N tau), not a
    product of per-axis cosines.  H = 1 at k = 0, |H| <= 1, and
    H[-k] = conj(H[k]), so H maps real fields to real fields.
    """
    g = spatial
    theta = np.asarray(angular.nodes)[:, : g.d]
    nyq = g.m // 2
    k = g.wavenumbers()
    stream = k.copy()
    stream[nyq] = 0.0
    phase = np.empty(g.shape[:-1] + (nyq + 1, theta.shape[0]))
    _dot_theta(phase, stream, theta)
    table = np.multiply(phase, -1j * tau)
    np.exp(table, out=table)
    _dot_theta(phase, k - stream, theta)
    phase *= tau
    table *= np.cos(phase, out=phase)
    return table


def _dot_theta(out, per_axis, theta):
    """out[n, j] = sum_a per_axis[n_a] theta[j, a] on the half-spectrum grid."""
    out[...] = 0.0
    for a in range(theta.shape[1]):
        shape = [1] * out.ndim
        shape[a] = out.shape[a]
        out += per_axis[: out.shape[a]].reshape(shape) * theta[:, a]


def _parseval_weights(spatial):
    """One weight per rfftn bin: sum_k w_k |U_k|^2 = cell_volume sum_x |u_x|^2."""
    g = spatial
    mult = half_multiplicity(g.m)
    w = np.broadcast_to(g.cell_volume() / g.m**g.d * mult, g.shape[:-1] + mult.shape)
    # the real and the imaginary batch rows carry the same weights
    return np.tile(w.ravel(), 2)


def _scatter_spectrum(eng, spec, dt, row_weight):
    """
    Scattering over dt on the spectrum, in place.  The engines are real-linear
    and the same at every x, so they act on the real and imaginary parts as
    one real batch of rows.  Returns the substep's (int ||u||^2 dtau,
    int ||u||^2_Hs dtau) and ||u||^2 after it.
    """
    flat = spec.reshape(-1, spec.shape[-1])
    rows = flat.shape[0]
    out, dl2, dhs, l2sq = eng.scatter_l2(
        np.concatenate((flat.real, flat.imag)), dt, row_weight
    )
    # write through spec itself: flat is a copy when spec is not C-ordered
    spec.real = out[:rows].reshape(spec.shape)
    spec.imag = out[rows:].reshape(spec.shape)
    return dl2, dhs, l2sq


def transport_step(u, dt):
    """
    Exact free streaming on the torus: per angular node theta_j, every
    spatial Fourier mode picks up the phase e^{-i (theta_j . k) dt}.  Unitary
    on band-limited data, so L2 is exact and mass (the k = 0 mode) never
    moves.  The folded Nyquist bin has no conjugate partner; its translate
    falls outside the grid space and the real projection folds it back (see
    `_transport_table`), so only data with energy at the fold sees any
    (norm-decreasing) effect.
    """
    spec = _to_spectrum(u)
    spec *= _transport_table(u.spatial, u.angular, dt)
    return PhaseField(u.spatial, u.angular, _to_values(u.spatial, spec), u.time + dt)


# ---------------------------------------------------------------------------
# scattering engines


def _null_kernel(kernel):
    return not isinstance(kernel, HGSpec) and kernel.b1 == 0.0 and kernel.h is None


def _energy_constants(kernel):
    """(D0, D1, sigma-prefactor flag): degenerate cleanly when b1 = 0."""
    base = kernel.base
    if base.b1 > 0.0:
        cst = constants(base)
        return cst.D0, cst.D1, True
    return 0.0, 2.0 * base.h_l1, False


def _sigma_table(kernel, lmax, with_b1):
    """
    Mode weights of the angular H^s form in the eigenbasis:
    ||u||^2_{H^s} = sum_l sigma_l |c_l|^2 with sigma_l = 2^{1-d} mu_l
    (mu_l the conformal eigenvalues), so that D0 sigma_l = D c_bessel -
    lambda_l of the pure power-law part.
    """
    base = kernel.base
    if not with_b1:
        return np.zeros(lmax + 1)
    mu = np.array([conformal_eigenvalue(base.d, base.s, l) for l in range(lmax + 1)])
    return 2.0 ** (1 - base.d) * mu


def _row_sum(row_weight, a):
    """
    sum_r row_weight_r a[r] over every axis of a but the last.  row_weight is
    one number per row, or one scalar for all: the cell volume for fields in
    physical space, the Parseval weights for the spectrum's real batch.
    """
    a = a.reshape(-1, a.shape[-1])
    return np.broadcast_to(np.ravel(row_weight), a.shape[:1]) @ a


def _norm_sq(values, weights, row_weight):
    """||u||^2: row-weighted sum of the angular quadrature of values^2."""
    return float(_row_sum(row_weight, ((values * values) @ weights)[..., None])[0])


def _decay_integral(lam, dt):
    """int_0^dt e^{2 lam t} dt, stable at lam = 0."""
    a = 2.0 * lam * dt
    out = np.full_like(np.asarray(lam, dtype=float), dt)
    nz = lam != 0.0
    out[nz] = np.expm1(a[nz]) / (2.0 * lam[nz])
    return out


class _SpectralEngine:
    """Exact exponential integrator in the angular eigenbasis."""

    def __init__(self, kernel, angular, lmax):
        if not isinstance(angular, SphereQuadrature):
            raise ParameterOutOfRange(
                "sphere-spectral backend needs SphereQuadrature angular nodes"
            )
        self.kernel = kernel
        self.angular = angular
        self.d = kernel.base.d
        m = len(angular.weights)
        if self.d == 2:
            # diagonal on every resolvable circular bin
            self.lmax = m // 2
        else:
            self.lmax = min(lmax, angular.lmax_cap())
        if _null_kernel(kernel):
            self.lambdas = np.zeros(self.lmax + 1)
        else:
            self.lambdas = funk_hecke_eigs(kernel, self.lmax).lambdas
        self.D0, self.D1, with_b1 = _energy_constants(kernel)
        self.sigma = _sigma_table(kernel, self.lmax, with_b1)
        if self.d == 3:
            basis = basis_at_directions(3, angular.nodes, self.lmax)
            self.basis = basis
            self.proj = angular.weights[:, None] * basis
            self.degrees = mode_degrees(3, self.lmax)

    def _spectrum(self, values):
        """Angular transform: rfft bins (d=2) or harmonic coefficients (d=3)."""
        if self.d == 2:
            return np.fft.rfft(values, axis=-1)
        return values @ self.proj

    def _masses(self, spec, values, row_weight):
        """Per-degree mode masses plus the beyond-band remainder (d=3 only)."""
        if self.d == 2:
            m = values.shape[-1]
            # Parseval mode masses over the angular rfft bins
            power = _row_sum(row_weight, np.abs(spec) ** 2)
            return (2.0 * np.pi / m**2) * half_multiplicity(m) * power, 0.0
        per_mode = _row_sum(row_weight, spec**2)
        resolved = np.bincount(self.degrees, weights=per_mode, minlength=self.lmax + 1)
        total = _norm_sq(values, self.angular.weights, row_weight)
        return resolved, max(total - float(resolved.sum()), 0.0)

    def functionals(self, values, row_weight):
        """Instantaneous (||u||^2, ||u||^2_{Hs}) in the marcher's accounting."""
        resolved, unresolved = self._masses(self._spectrum(values), values, row_weight)
        l2sq = float(resolved.sum()) + unresolved
        hssq = float(np.sum(self.sigma * resolved))
        return l2sq, hssq

    def scatter_l2(self, values, dt, row_weight):
        lam = self.lambdas
        spec = self._spectrum(values)
        resolved, unresolved = self._masses(spec, values, row_weight)
        if self.d == 2:
            out = np.fft.irfft(spec * np.exp(lam * dt), n=values.shape[-1], axis=-1)
        else:
            out = values + (spec * np.expm1(lam[self.degrees] * dt)) @ self.basis.T
        g = _decay_integral(lam, dt)
        l2_int = float(np.sum(resolved * g)) + unresolved * dt
        hs_int = float(np.sum(self.sigma * resolved * g))
        # free the input batch and its coefficients before the norm takes an
        # out-sized temporary: this is where a d=3 march peaks in memory
        del spec, values
        return out, l2_int, hs_int, _norm_sq(out, self.angular.weights, row_weight)


class _ProjectedEngine:
    """
    RK4 on the stereographic plane form with de-aliasing and mass repair.
    The substep is linear and the same for every row, so on planes of at
    most MAP_MAX_NODES nodes it is one precomputed n_nodes x n_nodes map per
    dt.
    """

    #: RK4 real-axis stability interval is |lam| dt <= 2.785; keep margin
    RK4_REACH = 2.5
    #: largest plane stepped by its map.  At 4096 nodes (d = 2 n = 4096 and
    #: d = 3 64^2) the map beats RK4 per row and M takes 128 MiB; larger
    #: planes were not measured, and M grows as n_nodes**2
    MAP_MAX_NODES = 4096
    #: identity rows pushed through the RK4 code at a time while M is built,
    #: so the build holds M and one block's RK4 temporaries
    MAP_BUILD_ROWS = 256

    def __init__(self, kernel, angular, lmax):
        if not isinstance(angular, ProjectedAngularGrid):
            raise ParameterOutOfRange(
                "projected-plane backend needs ProjectedAngularGrid angular nodes"
            )
        if isinstance(kernel, HGSpec):
            raise ParameterOutOfRange(
                "projected-plane backend integrates the limiting kernel only"
            )
        self.kernel = kernel
        self.angular = angular
        grid = angular.plane
        self.grid = grid
        self.pshape = grid.shape
        self.paxes = tuple(range(-grid.ndim, 0))
        s = kernel.s
        self.plane = PlaneOperator(grid, s)
        cst = constants(kernel)
        # node values evolve with the unweighted rate: the plane form yields
        # [I(u)]_J <v>^{-(d-1)}, so undo the weight here (stiff in the halo,
        # which is what the power-iteration dt bound measures)
        self.front = cst.D * grid.bracket() ** (2.0 * s + grid.ndim)
        self.D0, self.D1, _ = _energy_constants(kernel)
        if kernel.h is not None:
            z = np.clip(angular.nodes @ angular.nodes.T, -1.0, 1.0)
            hmat = kernel.remainder(z) * angular.weights[None, :]
            self.hmat = hmat
            self.hrow = hmat.sum(axis=1)
        else:
            self.hmat = None
        # two-thirds rule along each plane axis
        keep = np.abs(np.fft.fftfreq(grid.n)) <= 1.0 / 3.0
        mask = np.ones(grid.shape, dtype=bool)
        for a in range(grid.ndim):
            shape = [1] * grid.ndim
            shape[a] = grid.n
            mask = mask & keep.reshape(shape)
        self.filter_mask = mask
        self.wsum = float(angular.weights.sum())
        self._bound = None
        self._maps = {}

    def apply(self, flat):
        """Operator on (..., n_nodes) value arrays."""
        f = flat.reshape(flat.shape[:-1] + self.pshape)
        out = (self.front * self.plane.core(f)).reshape(flat.shape)
        if self.hmat is not None:
            out = out + flat @ self.hmat.T - self.hrow * flat
        return out

    def stability_bound(self):
        """dt bound from a deterministic power-iteration radius estimate."""
        if self._bound is None:
            rng = np.random.default_rng(1234)
            v = rng.standard_normal(len(self.angular.weights))
            rho = 1.0
            for _ in range(60):
                av = self.apply(v)
                rho = float(np.linalg.norm(av) / np.linalg.norm(v))
                v = av / np.linalg.norm(av)
            self._bound = self.RK4_REACH / rho
        return self._bound

    def _substep(self, values, dt):
        """RK4 over dt, the two-thirds plane filter and the mass repair: a
        linear map of each row, the same for every row."""
        w = self.angular.weights
        pre_mass = values @ w
        k1 = self.apply(values)
        k2 = self.apply(values + 0.5 * dt * k1)
        k3 = self.apply(values + 0.5 * dt * k2)
        k4 = self.apply(values + dt * k3)
        out = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # de-alias along the plane, then restore the (equilibrium) mean so the
        # filter cannot leak angular mass
        f = out.reshape(out.shape[:-1] + self.pshape)
        spec = np.fft.fftn(f, axes=self.paxes)
        f = np.fft.ifftn(np.where(self.filter_mask, spec, 0.0), axes=self.paxes).real
        out = f.reshape(out.shape)
        out += ((pre_mass - out @ w) / self.wsum)[..., None]
        return out

    def substep_map(self, dt):
        """
        `_substep` over dt as the matrix M with _substep(v) = v @ M: the
        identity pushed through it once per dt, and kept per dt for the rest
        of the engine's life.
        """
        M = self._maps.get(dt)
        if M is None:
            n = len(self.angular.weights)
            M = np.empty((n, n))
            for i in range(0, n, self.MAP_BUILD_ROWS):
                rows = min(self.MAP_BUILD_ROWS, n - i)
                M[i : i + rows] = self._substep(np.eye(rows, n, k=i), dt)
            self._maps[dt] = M
        return M

    def scatter_l2(self, values, dt, row_weight):
        if dt > self.stability_bound():
            raise StabilityViolation(
                f"dt={dt} exceeds projected-backend bound {self.stability_bound():.3e}"
            )
        w = self.angular.weights
        n = len(w)
        pre_l2 = _norm_sq(values, w, row_weight)
        pre_hs = self._hs_total(values, row_weight)
        if n <= self.MAP_MAX_NODES:
            out = (values.reshape(-1, n) @ self.substep_map(dt)).reshape(values.shape)
        else:
            out = self._substep(values, dt)
        post_l2 = _norm_sq(out, w, row_weight)
        if post_l2 > pre_l2 * (1.0 + GROWTH_TOL):
            raise StabilityViolation(
                f"projected scattering grew L2 by {post_l2 / pre_l2 - 1.0:.3e}"
            )
        post_hs = self._hs_total(out, row_weight)
        l2_int = 0.5 * dt * (pre_l2 + post_l2)
        hs_int = 0.5 * dt * (pre_hs + post_hs)
        return out, l2_int, hs_int, post_l2

    def _hs_total(self, values, row_weight):
        """int ||(-Lap)^{s/2} (u w0)||^2 over space: row-weighted seminorms."""
        per_x = self.plane.seminorm_sq(values.reshape(values.shape[:-1] + self.pshape))
        return float(_row_sum(row_weight, per_x.reshape(-1, 1))[0])

    def functionals(self, values, row_weight):
        """Instantaneous (||u||^2, ||u||^2_{Hs}) in the marcher's accounting."""
        l2sq = _norm_sq(values, self.angular.weights, row_weight)
        return l2sq, self._hs_total(values, row_weight)


def _engine_for(cfg, u):
    """A new scattering engine for cfg on u's angular grid.  Its
    `scatter_l2(values, dt, row_weight)` returns the new values, the substep's
    int ||u||^2 dtau and int ||u||^2_{Hs} dtau, and ||u||^2 after it."""
    cls = _SpectralEngine if cfg.backend == "sphere-spectral" else _ProjectedEngine
    return cls(cfg.kernel, u.angular, cfg.lmax)


def scattering_step(u, dt, cfg):
    """Angular relaxation over dt; spatial nodes never couple."""
    eng = _engine_for(cfg, u)
    out = eng.scatter_l2(u.values, dt, u.spatial.cell_volume())[0]
    return PhaseField(u.spatial, u.angular, out, u.time)


def strang_step_energy(u, dt, cfg):
    """
    transport(dt/2), scattering(dt), transport(dt/2), plus the scattering
    substep's time integrals (int ||u||^2 dtau, int ||u||^2_{Hs} dtau).
    Transport is unitary, so these are the whole step's integrals too.  This
    is one step of `run`'s kernel, from physical values to physical values.
    """
    eng = _engine_for(cfg, u)
    half = _transport_table(u.spatial, u.angular, 0.5 * dt)
    spec = _to_spectrum(u)
    spec *= half
    dl2, dhs, _ = _scatter_spectrum(eng, spec, dt, _parseval_weights(u.spatial))
    spec *= half
    out = _to_values(u.spatial, spec)
    return PhaseField(u.spatial, u.angular, out, u.time + 0.5 * dt + 0.5 * dt), dl2, dhs


def strang_step(u, dt, cfg):
    """transport(dt/2) then scattering(dt) then transport(dt/2)."""
    out, _, _ = strang_step_energy(u, dt, cfg)
    return out


def energy_functionals(u, cfg):
    """Instantaneous (||u||^2, ||u||^2_{Hs}) as the marcher accounts them."""
    eng = _engine_for(cfg, u)
    return eng.functionals(u.values, u.spatial.cell_volume())


# ---------------------------------------------------------------------------
# full runs


def run(cfg, u0, observe=None):
    """
    March u0 to t_end, emitting diagnostics and snapshots at the configured
    cadences.  Enforces mass conservation (1e-8 relative), per-step L2
    monotonicity (1e-10 slack), and finiteness; halts with
    InvariantViolation/StabilityViolation otherwise.

    The state between emits is the rfftn spectrum just after a scattering
    substep (see the module docstring); the per-step checks read it there.

    `observe(u, dl2, dhs, functionals)`, when given, is called for u0 with
    dl2 = dhs = 0.0 and then after every step, with the physical field u
    (the one an emit builds), that step's int ||u||^2 dtau and
    int ||u||^2_Hs dtau, and `functionals(values)`, this run's
    (||u||^2, ||u||^2_Hs) at cell-volume weight.  The run builds its
    scattering engine once and drops it when it returns.
    """
    if u0.min_value() < 0.0:
        raise ParameterOutOfRange(
            f"initial data must be nonnegative, min = {u0.min_value():.3e}"
        )
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        raise ParameterOutOfRange(
            f"t_end={cfg.t_end} is not an integer multiple of dt={cfg.dt}"
        )
    eng = _engine_for(cfg, u0)
    g, angular = u0.spatial, u0.angular

    def functionals(values):
        return eng.functionals(values, g.cell_volume())

    half = _transport_table(g, angular, 0.5 * cfg.dt)
    fused = half * half
    row_weight = _parseval_weights(g)
    zero_row = (0,) * g.d
    spec = _to_spectrum(u0)
    time = u0.time
    mass0 = u0.mass()
    l2_prev_step = u0.l2()
    l2_prev_emit = l2_prev_step
    hs_total = 0.0
    win_l2 = 0.0
    win_hs = 0.0
    records = [
        DiagnosticsRecord(time, mass0, l2_prev_step, u0.linf(), 0.0, 0.0)
    ]
    snapshots = [u0.copy()] if cfg.snapshot_every else []
    if observe is not None:
        observe(u0, 0.0, 0.0, functionals)
    for step in range(1, n_steps + 1):
        spec *= half if step == 1 else fused
        dl2, dhs, l2sq = _scatter_spectrum(eng, spec, cfg.dt, row_weight)
        # two half-steps, added in order: the same clock as strang_step_energy
        time = time + 0.5 * cfg.dt + 0.5 * cfg.dt
        win_l2 += dl2
        win_hs += dhs
        # a non-finite entry makes the Parseval sum non-finite
        if not np.isfinite(l2sq) and not np.all(np.isfinite(spec)):
            raise InvariantViolation(f"non-finite values at t={time:.6g}")
        l2_now = np.sqrt(l2sq)
        if l2_now > l2_prev_step * (1.0 + L2_STEP_TOL):
            raise StabilityViolation(
                f"L2 grew from {l2_prev_step:.12e} to {l2_now:.12e} at step {step}"
            )
        mass_now = g.cell_volume() * float(spec[zero_row].real @ angular.weights)
        if abs(mass_now - mass0) > MASS_TOL * abs(mass0):
            raise InvariantViolation(
                f"mass drift {abs(mass_now - mass0) / abs(mass0):.3e} at step {step}"
            )
        l2_prev_step = l2_now
        emit = step % cfg.diagnostics_every == 0 or step == n_steps
        snap = bool(cfg.snapshot_every) and (
            step % cfg.snapshot_every == 0 or step == n_steps
        )
        if not (emit or snap or observe is not None):
            continue
        u = PhaseField(g, angular, _to_values(g, spec * half), time)
        if observe is not None:
            observe(u, dl2, dhs, functionals)
        if emit:
            l2_emit = u.l2()
            hs_total += win_hs
            residual = (
                0.5 * l2_prev_emit**2
                + eng.D1 * win_l2
                - 0.5 * l2_emit**2
                - eng.D0 * win_hs
            )
            records.append(
                DiagnosticsRecord(time, mass_now, l2_emit, u.linf(), hs_total, residual)
            )
            l2_prev_emit = l2_emit
            win_l2 = 0.0
            win_hs = 0.0
        if snap:
            snapshots.append(u)
        # let the field go before the next step's scatter takes its temporaries
        del u
    return snapshots, records


# ---------------------------------------------------------------------------
# initial data


def _spatial_gaussian(spatial, sigma, center):
    """
    Periodized Gaussian (first ring of images): smooth on the torus, so its
    lattice sum reproduces the closed-form mass (2 pi sigma^2)^{d/2} to
    roundoff whenever sigma <~ X/6.
    """
    ax = spatial.axis()
    prof = []
    for a in range(spatial.d):
        p = np.zeros_like(ax)
        for k in (-1.0, 0.0, 1.0):
            p += np.exp(-((ax - center[a] - k * spatial.X) ** 2) / (2.0 * sigma**2))
        prof.append(p)
    out = prof[0]
    for p in prof[1:]:
        out = np.multiply.outer(out, p)
    return out


def make_initial(kind, spatial, angular, amplitude=1.0, sigma=None, center=None,
                 sigma_theta=0.5, degree=1, contrast=0.5):
    """
    Nonnegative initial fields with analytically known mass:

    ``isotropic-blob``      Gaussian in x, uniform in angle
    ``gaussian-beam``       Gaussian in x times exp((theta.e0 - 1)/sigma_theta^2)
    ``harmonic-perturbation`` blob times (1 + contrast * normalized harmonic)
    """
    sigma = spatial.X / 10.0 if sigma is None else float(sigma)
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ParameterOutOfRange(f"need finite sigma > 0, got {sigma}")
    center = (spatial.X / 2.0,) * spatial.d if center is None else tuple(center)
    if len(center) != spatial.d or not np.all(np.isfinite(center)):
        raise ParameterOutOfRange(
            f"need {spatial.d} finite center coordinates, got {center}"
        )
    if not np.isfinite(amplitude):
        raise ParameterOutOfRange(f"need a finite amplitude, got {amplitude}")
    blob = amplitude * _spatial_gaussian(spatial, sigma, center)
    nodes = np.asarray(angular.nodes)
    if kind == "isotropic-blob":
        ang = np.ones(nodes.shape[0])
    elif kind == "gaussian-beam":
        if not (np.isfinite(sigma_theta) and sigma_theta > 0.0):
            raise ParameterOutOfRange(f"need finite sigma_theta > 0, got {sigma_theta}")
        ang = np.exp((nodes[:, 0] - 1.0) / sigma_theta**2)
    elif kind == "harmonic-perturbation":
        if not (0.0 <= contrast <= 1.0):
            raise ParameterOutOfRange(f"need 0 <= contrast <= 1, got {contrast}")
        if degree < 0:
            raise ParameterOutOfRange(f"need degree >= 0, got {degree}")
        if spatial.d == 2:
            phi = np.arctan2(nodes[:, 1], nodes[:, 0])
            harm = np.cos(degree * phi)
        else:
            col = basis_at_directions(3, nodes, degree)[:, degree**2]
            harm = col / np.max(np.abs(col))
        ang = 1.0 + contrast * harm
    else:
        raise UnknownKind(
            f"initial kind {kind!r}; use isotropic-blob, gaussian-beam, "
            "or harmonic-perturbation"
        )
    values = blob[..., None] * ang[None, :].reshape((1,) * spatial.d + (-1,))
    return PhaseField(spatial, angular, values, 0.0)


def beam_angular_mass(d, sigma_theta):
    """Closed-form angular integral of exp((theta.e0 - 1)/sigma_theta^2)."""
    from scipy.special import i0e

    a = 1.0 / sigma_theta**2
    if d == 2:
        return 2.0 * np.pi * i0e(a)
    return 2.0 * np.pi / a * (1.0 - np.exp(-2.0 * a))


# ---------------------------------------------------------------------------
# snapshots and diagnostics I/O


def write_snapshot(u, path):
    """Binary snapshot: magic, version, d, m, angular count, time, payload."""
    header = SNAPSHOT_MAGIC + struct.pack(
        "<IIIId",
        SNAPSHOT_VERSION,
        u.spatial.d,
        u.spatial.m,
        len(u.angular.weights),
        u.time,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def read_snapshot(path):
    """Returns (d, m, n_angular, time, values) from a snapshot file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != SNAPSHOT_MAGIC:
        raise InvariantViolation(f"bad snapshot magic {raw[:4]!r}")
    if len(raw) < SNAPSHOT_HEADER_BYTES:
        raise InvariantViolation(f"snapshot header truncated at {len(raw)} bytes")
    version, d, m, n_ang, time = struct.unpack_from("<IIIId", raw, 4)
    if version != SNAPSHOT_VERSION:
        raise InvariantViolation(f"unsupported snapshot version {version}")
    payload = len(raw) - SNAPSHOT_HEADER_BYTES
    want = 8 * m**d * n_ang
    if payload != want:
        raise InvariantViolation(
            f"snapshot payload has {payload} bytes, expected {want} "
            f"({m}^{d} cells x {n_ang} nodes)"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=SNAPSHOT_HEADER_BYTES)
    return d, m, n_ang, time, values.reshape((m,) * d + (n_ang,)).astype(float)


def write_diagnostics(records, path):
    """CSV with the pinned header; full-precision %.17g floats."""
    lines = [DIAGNOSTICS_HEADER]
    for r in records:
        lines.append(
            ",".join(
                "%.17g" % v
                for v in (r.time, r.mass, r.l2, r.linf, r.hs_integral, r.energy_residual)
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
