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
    is linear and the same for every row, so for the engine's dt it is one
    n_nodes x n_nodes matrix M, built with the engine by pushing the
    identity through the RK4 code, and every batch is stepped as
    values @ M.  M holds n_nodes**2 doubles and costs 2 n_nodes flops a
    value, against a few plane FFTs for RK4, so the map serves planes of at
    most MAP_MAX_NODES = 4096 nodes (a d = 3 64^2 plane, 128 MiB), the
    largest measured; a larger plane is stepped by the RK4 code itself.
    The plane operator and H^s seminorm are those of
    `apply_scatter_projected` and `hs_norm`, one `scatter.PlaneOperator`.

Both backends are real-linear and the same at every x, so the whole step
commutes with the spatial Fourier transform, and `run` marches in Fourier
space.  Between emits its state is the rfftn spectrum over the space axes,
angular nodes last.  Streaming by dt/2 is one multiplier H = (E +
conj(E[-k])) / 2 with E = exp(-i theta.k dt/2) on the fftfreq grid.  H
equals E off the Nyquist planes; on them it is the fold that taking the real
part of the inverse transform applies, cos((theta.k_N) dt/2) times the phase
of the other components.  E is a product over the axes, and so is H except
on the rows on two or more Nyquist planes, so a run keeps H as one small
factor per axis, the exact factors of those few rows, and the product of the
factors of every axis but the first, 1/m of the spectrum (see `_Stream`).
The two half-steps that meet between consecutive steps fuse into one
multiply by H*H, whose factors are the squares.  Each engine streams the
spectrum in place at the start of its substep: the d = 3 spectral engine
block by block, while a block is in cache, the others in one pass.
Scattering acts on the spectrum's rows in place, each weighted by its
Parseval weight; `scatter_spectrum` is each engine's one stepping entry.  The
sphere-spectral engine steps the complex rows themselves.  At d = 2 that is
one complex fft along the angle axis, the per-degree masses from the bin
powers, a multiply by the even table exp(lambda_|k| dt) over the fft bins,
one ifft.  At d = 3 the rule is rings x uniform azimuths, on which the map
is circulant in azimuth too, and it goes SPHERE_BLOCK_ROWS rows at a time
in bin-major order: an fft along each ring into a (bin, ring, row) slot, one
small polar product per fft bin for the coefficients and one for their
synthesis times expm1(lambda_l dt) (the tables are 0 on the bins
|k| > lmax), one contiguous add into the slot, and an ifft back into the
rows.  The blocks are
independent but for three sums, so `_in_order` steps them in contiguous
chunks, one thread per CPU the process may use, and the sums are taken in
block order afterwards: no output bit depends on the thread count.
The projected engine copies the real and imaginary parts into one real batch
of rows, steps it and writes it back.  The per-step checks read the spectrum
(mass from the k = 0 row, where H = 1; L2 by Parseval), and the last
half-step and irfftn run only when a diagnostics row or a snapshot needs
physical values.  Physical fields reach an engine only through
`functionals`, at the cell volume as their one weight.  `transport_step`
streams a physical field by the same factors, and `strang_step_energy` is the
one observed step of a `run` to t = dt.  A study that needs the state after
every step subscribes to `run` through its `observe` argument instead of
marching again.

Each `run` builds its own scattering engine for its one dt, and the engine
lives as long as the run.  Whatever depends on dt is computed when it is
built: the spectral engine's per-mode factors and decay integrals, the
projected engine's dt bound (a dt over it fails there, before the first
step), its map M and its H^s form.  Each engine keeps a workspace (see
`_Engine`): the batch of rows and the batch-sized arrays its substep needs,
built on first use and kept for the engine's life, so a march allocates them
once instead of every step (the d = 3 spectral substep needs only
block-sized ones).  Every batch-sized temporary of the substep goes through
it by numpy's `out=` as the same FFT, BLAS or ufunc call on the same
operands, so no number moves.  The caller's fields are never written:
`scatter_spectrum` steps the march's own spectrum, and `functionals` only
reads its field.  An emit's last half-step and the complex passes
of its irfftn run in the batch's bytes too; the physical field is a new
array whenever the observer or a snapshot may keep it, so `observe` always
gets a fresh field.

Energy accounting: both time integrals entering the L2-vs-H^s energy
inequality are accumulated inside the scattering substep (the transport
substep is unitary, so the full-step L2 drop equals the scattering drop
exactly).  On sphere-spectral they come from the same per-mode closed forms,
so the recorded interval residual is a sum of structurally nonnegative
per-mode terms and vanishes at roundoff for a pure power-law kernel.  On
projected-plane they are trapezoids in time of ||u||^2 and of the plane
seminorm, and the residual is nonnegative but O(1): about 17% of the
window's drop in ||u||^2 / 2 for a d = 2 beam on an L = 16, n = 128 plane.
The plane misses the polar cap beyond L, so the discrete operator's
dissipation is not D0 ||u||^2_Hs.  On mapped planes of at most
FORM_MAX_NODES = 512 nodes the H^s trapezoid is one quadratic form,
v (Q + M Q M^T) v^T with Q the plane seminorm's Gram matrix, built beside
M.  Like M it costs 2 n_nodes flops a value; on one BLAS thread it beat the
two plane FFT seminorms it replaces up to d = 2 n = 512 and lost at 1024
nodes, so every d = 3 plane (at least 1024 nodes) keeps the FFTs.
"""

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvariantViolation,
    ParameterOutOfRange,
    StabilityViolation,
    UnknownKind,
)
from .fracop import PlaneGrid, parseval_weights
from .geom import check_dimension, direction_cosines, jacobian_to_sphere, unproject
from .kernels import HGSpec, conformal_eigenvalue, constants, energy_constants
from .scatter import (
    PlaneOperator,
    SphereQuadrature,
    basis_at_directions,
    funk_hecke_eigs,
    sectoral_harmonic,
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
#: spectrum rows a d = 3 sphere-spectral substep steps at a time.  On the
#: 16 x 32 node rule at lmax 15 (2304 complex rows, one thread, 2-core Xeon,
#: numpy 2.4.6) blocks of 32, 64 and 128 rows took 33-34, 31-36 and 34-53 ms
#: a substep at best (the equator fold it replaced: 49-63 ms); on the 32 x 64
#: rule at lmax 31, 170-209, 207-221 and 283-315 ms (the fold: 349-359 ms)
SPHERE_BLOCK_ROWS = 64


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic torus [0, X)^d sampled on m points per axis."""

    d: int
    X: float
    m: int

    def __post_init__(self):
        check_dimension(self.d)
        if not (np.isfinite(self.X) and self.X > 0.0):
            raise ParameterOutOfRange(f"need finite X > 0, got {self.X}")
        if self.m < 2 or self.m & (self.m - 1):
            raise ParameterOutOfRange(f"need m a power of two >= 2, got {self.m}")
        # a float product overflows to inf where (X / m) ** d raises
        if not math.isfinite(math.prod((self.spacing(),) * self.d)):
            raise ParameterOutOfRange(f"need a finite cell volume, got X = {self.X}")

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
        pts = self.plane.points().reshape(-1, self.plane.ndim)
        object.__setattr__(self, "nodes", unproject(pts, self.plane.d))
        w = jacobian_to_sphere(pts, self.plane.d) * self.plane.cell_volume()
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
        # NaN propagates through min and max, so both are finite exactly when
        # every value is; neither allocates a field-sized array
        if not (np.isfinite(self.values.min()) and np.isfinite(self.values.max())):
            raise InvariantViolation("phase field contains non-finite values")

    def copy(self):
        return PhaseField(self.spatial, self.angular, self.values.copy(), self.time)

    def mass(self):
        w = self.angular.weights
        return float(self.spatial.cell_volume() * np.sum(self.values @ w))

    def l2(self, scratch=None):
        """||u||; `scratch`, an array of the values' shape, takes the squares."""
        w = self.angular.weights
        sq = np.square(self.values, out=scratch)
        return float(np.sqrt(self.spatial.cell_volume() * np.sum(sq @ w)))

    def linf(self, scratch=None):
        """max |u|; `scratch`, an array of the values' shape, takes |u|."""
        return float(np.max(np.abs(self.values, out=scratch)))

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
        if not math.isfinite(self.t_end / self.dt):
            raise ParameterOutOfRange(
                f"need finite t_end / dt, got {self.t_end / self.dt}"
            )
        if self.lmax < 1:
            raise ParameterOutOfRange(f"need lmax >= 1, got {self.lmax}")
        if self.snapshot_every < 0 or self.diagnostics_every < 1:
            raise ParameterOutOfRange("invalid snapshot/diagnostics cadence")

    def steps(self):
        """The number of steps of dt to t_end, which must be an integer multiple."""
        n_steps = int(round(self.t_end / self.dt))
        if abs(n_steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ParameterOutOfRange(
                f"t_end={self.t_end} is not an integer multiple of dt={self.dt}"
            )
        return n_steps


@dataclass
class DiagnosticsRecord:
    time: float
    mass: float
    l2: float
    linf: float
    hs_integral: float
    energy_residual: float


# ---------------------------------------------------------------------------
# transport in the spatial-Fourier layout


def _to_spectrum(u):
    """rfftn over the space axes; the angular nodes stay the last axis.  The
    passes after the first run in place in the result."""
    g = u.spatial
    spec = np.empty(g.shape[:-1] + (g.m // 2 + 1, u.values.shape[-1]), complex)
    return np.fft.rfftn(u.values, axes=tuple(range(g.d)), out=spec)


def _to_values(spatial, spec, out=None):
    """
    irfftn over the space axes, pass for pass as numpy runs it, but with the
    complex passes in place: spec is overwritten, and the real field goes to
    `out`, or to a new array.
    """
    for axis in range(spatial.d - 1):
        np.fft.ifft(spec, spatial.m, axis, out=spec)
    return np.fft.irfft(spec, spatial.m, spatial.d - 1, out=out)


class _Stream:
    """
    Free streaming over tau as one multiplier H on the rfftn half-spectrum,
    kept as per-axis factors.

    Streaming multiplies the full spectrum by E = exp(-i theta.k tau), k on
    the fftfreq grid, and the real part of the inverse transform then folds
    that to H = (E + conj(E[-k])) / 2, where E[-k] is E at the indices
    negated mod m.  Off the Nyquist planes H = E.  On them a Nyquist index is
    its own negation, so H = exp(-i theta.k' tau) cos(theta.k'' tau), with k'
    the wavevector with its Nyquist components zeroed and k'' = k - k'.
    H = 1 at k = 0, |H| <= 1, and H[-k] = conj(H[k]), so H maps real fields
    to real fields.

    E is a product over the axes, and so is H on every spectrum row (one
    spatial bin, a value per node) with at most one Nyquist index:
    `factors[a]`, (bins along axis a, nodes), holds exp(-i theta_a k_a tau),
    and cos(theta_a k_N tau) at the Nyquist index.  On a row on two or more
    Nyquist planes H is cos((theta_a + theta_b) k_N tau) times the rest, not
    a product of per-axis cosines, so those rows (`rows`, their indices in C
    order) keep their own factors, `exact`.  `trail` is the product of the
    factors of every axis but the first, one row per row of a first-axis
    slab: 1/m of the spectrum.
    """

    def __init__(self, factors, rows, exact):
        self.factors, self.rows, self.exact = factors, rows, exact
        trail = factors[-1]
        for factor in factors[-2:0:-1]:
            trail = (factor[:, None] * trail).reshape(-1, trail.shape[-1])
        self.trail = trail

    @classmethod
    def over(cls, spatial, angular, tau):
        """Streaming over tau on spatial's rfftn half-spectrum."""
        g = spatial
        theta = np.asarray(angular.nodes)[:, : g.d]
        nyq = g.m // 2
        k = g.wavenumbers()
        stream = k.copy()
        stream[nyq] = 0.0
        fold = k - stream
        bins = g.shape[:-1] + (nyq + 1,)
        factors = [
            np.exp(np.multiply.outer(stream[:n], theta[:, a]) * (-1j * tau))
            * np.cos(np.multiply.outer(fold[:n], theta[:, a]) * tau)
            for a, n in enumerate(bins)
        ]
        index = np.indices(bins).reshape(g.d, -1)
        rows = np.flatnonzero(np.sum(index == nyq, axis=0) >= 2)
        # theta.k' and theta.k'' of each such row, summed axis by axis
        phase = np.zeros((len(rows), theta.shape[0]))
        folds = np.zeros_like(phase)
        for a in range(g.d):
            phase += stream[index[a, rows], None] * theta[:, a]
            folds += fold[index[a, rows], None] * theta[:, a]
        return cls(factors, rows, np.exp(phase * (-1j * tau)) * np.cos(folds * tau))

    def squared(self):
        """Two streams by tau in a row, each folded: H * H."""
        return _Stream([f * f for f in self.factors], self.rows, self.exact * self.exact)

    def apply(self, rows, start=0, out=None):
        """
        Spectrum rows start, start + 1, ..., given as a C-ordered (count,
        nodes) array of them, times H: in place, or into `out`, an array of
        their shape.  Each row is multiplied by its row of `trail` and then
        by its first-axis factor, in three passes of two calls each: the
        part of the first first-axis slab, the whole slabs, the part of the
        last.  The rows on two or more Nyquist planes are then set from their
        exact factors.
        """
        out = rows if out is None else out
        end = start + len(rows)
        slab = len(self.trail)
        lo, hi = np.searchsorted(self.rows, (start, end))
        at = self.rows[lo:hi] - start
        exact = rows[at] * self.exact[lo:hi]
        head = min(end, -(-start // slab) * slab)
        tail = max(head, end // slab * slab)
        for first, last in ((start, head), (head, tail), (tail, end)):
            if first == last:
                continue
            i, skip = divmod(first, slab)
            width = min(slab - skip, last - first)
            shape = ((last - first) // width, width, -1)
            part = out[first - start : last - start].reshape(shape)
            src = rows[first - start : last - start].reshape(shape)
            np.multiply(src, self.trail[skip : skip + width], out=part)
            part *= self.factors[0][i : i + shape[0], None]
        out[at] = exact
        return out


def _parseval_weights(spatial):
    """One weight per rfftn bin, the spectrum's rows in C order:
    sum_k w_k |U_k|^2 = cell_volume sum_x |u_x|^2."""
    g = spatial
    return parseval_weights(g.m, g.d, g.cell_volume()).ravel()


def transport_step(u, dt):
    """
    Exact free streaming on the torus: per angular node theta_j, every
    spatial Fourier mode picks up the phase e^{-i (theta_j . k) dt}.  Unitary
    on band-limited data, so L2 is exact and mass (the k = 0 mode) never
    moves.  The folded Nyquist bin has no conjugate partner; its translate
    falls outside the grid space and the real projection folds it back (see
    `_Stream`), so only data with energy at the fold sees any
    (norm-decreasing) effect.
    """
    spec = _to_spectrum(u)
    _stream(spec, _Stream.over(u.spatial, u.angular, dt))
    return PhaseField(u.spatial, u.angular, _to_values(u.spatial, spec), u.time + dt)


# ---------------------------------------------------------------------------
# scattering engines


def _null_kernel(kernel):
    return not isinstance(kernel, HGSpec) and kernel.b1 == 0.0 and kernel.h is None


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
    mu = conformal_eigenvalue(base.d, base.s, np.arange(lmax + 1))
    return 2.0 ** (1 - base.d) * mu


def _row_sum(row_weight, a):
    """
    sum_r row_weight_r a[r] over every axis of a but the last.  row_weight is
    one number per row, or one scalar for all: the cell volume for fields in
    physical space, the Parseval weights for the spectrum's rows.
    """
    a = a.reshape(-1, a.shape[-1])
    w = np.ravel(row_weight)
    if w.size == 1:
        # as a contiguous vector: matmul runs a stride-0 operand through its
        # own loop instead of BLAS, over 10x slower on (4096, 256) rows
        w = np.full(a.shape[0], w[0])
    return w @ a


def _norm_sq(values, weights, row_weight, scratch):
    """||u||^2: row-weighted sum of the angular quadrature of values^2, with
    the squares in `scratch`, an array of the values' shape."""
    sq = np.multiply(values, values, out=scratch)
    return float(_row_sum(row_weight, (sq @ weights)[..., None])[0])


def _stream(spec, stream):
    """Stream the march's spectrum in place by `stream`, a `_Stream`, if
    one is given: one pass over it, a first-axis slab at a time."""
    if stream is not None:
        stream.apply(spec.reshape(-1, spec.shape[-1], copy=False))


def _cpus():
    """The CPUs this process may run on: its affinity mask where the OS has
    one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(job, items):
    """[job(x) for x in items] on min(_cpus(), len(items)) threads, the
    package's one thread pool, with the results in item order.  The pool is
    closed before this returns, also when a job raises."""
    workers = min(_cpus(), len(items))
    if workers <= 1:
        return [job(x) for x in items]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(job, items))


class _Engine:
    """
    What both scattering engines share.  An engine is built for one dt and
    steps by that dt only; whatever depends on dt is computed when it is
    built.  It keeps the batch-sized arrays of its substep from call to call,
    so that a march allocates them once instead of every step.  Each named
    slot is a byte buffer that grows to the largest request and is handed
    out as a view of any shape and dtype, so an array whose contents are dead
    lends its bytes to the next temporary.  The slots:

    ``batch``  the spectrum's real and imaginary parts as one real batch
               (projected), a field's real rows cast to complex rows for
               `functionals` (d=2 spectral), or one block of spectrum or
               field rows in bin-major order, (az, rings, rows) complex
               (d=3 spectral);
    ``out``    a second array at least the batch's size: the bin powers
               (d=2 spectral) or the substep's output (projected);
    ``coef``   a block's harmonic coefficients (d=3 spectral) or plane
               half-spectra (projected, FFT route);
    ``bins``   a block's squares, then its coefficients' squares and
               their increments (d=3 spectral).

    The d=3 spectral slots hold one block of SPHERE_BLOCK_ROWS rows, not a
    batch.  That substep steps its blocks in W contiguous chunks, one per
    worker thread (see `_per_order`), and chunk i takes its slots from slot
    set i of `_slot_sets`: set 0 is the engine's own slots, and the others
    are made on first use and kept for the engine's life.  The blocks' sums
    are added in block order, so no number depends on W.  All are dead
    between steps, so an emit (`field`, `norms`) builds each field and its
    norms in them.  What the engine returns is valid until its next call.
    Each engine has one stepping method, `scatter_spectrum(spec,
    row_weight, stream=None)`: it streams the spectrum in place by `stream`,
    a `_Stream`, when one is given, scatters it in place, and returns the
    substep's int ||u||^2 dtau and int ||u||^2_{Hs} dtau, and ||u||^2 after
    it.  An engine built with dt = None does not step and serves
    `functionals` only.
    """

    def __init__(self, dt):
        self.dt = dt
        self._slots = {}
        self._slot_sets = [self._slots]

    def _take(self, name, shape, dtype=float, slots=None):
        """Slot `name` of the slot set `slots` (the engine's own by default)
        as a C-ordered array of `shape`; contents undefined."""
        slots = self._slots if slots is None else slots
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = slots.get(name)
        if buf is None or buf.size < nbytes:
            buf = slots[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def start(self, spec):
        """Take the batch at the size of the run's spectrum, which every
        substep's batch and every emit's temporaries fit in, so that a run
        allocates it once."""
        self._take("batch", spec.shape, complex)

    def field(self, spatial, spec, half, keep):
        """
        The physical field of spec streamed by `half`, a `_Stream`: the last
        half-step of an emit.  The streamed spectrum and the complex passes of
        irfftn run in the batch's bytes.  The field is a new array when
        `keep`, and else lives in the "out" slot until the engine's next
        call; spec is never written.
        """
        prod = self._take("batch", spec.shape, complex)
        n = spec.shape[-1]
        half.apply(spec.reshape(-1, n), out=prod.reshape(-1, n))
        shape = spatial.shape + spec.shape[-1:]
        return _to_values(spatial, prod, None if keep else self._take("out", shape))

    def norms(self, u):
        """(||u||, max |u|) of a field, with the squares in the batch's bytes."""
        scratch = self._take("batch", u.values.shape)
        return u.l2(scratch), u.linf(scratch)


class _SpectralEngine(_Engine):
    """
    Exact exponential integrator in the angular eigenbasis.

    At d = 2 that basis is the circular Fourier modes, and the substep steps
    complex rows in place: an fft along the angle axis, the weighted bin
    powers |Z_k|^2 folded to per-degree masses over k = +-l, a multiply by
    the even real table exp(lambda_|k| dt) over the fft bins, and an ifft.
    The marcher's spectrum is stepped as it is, one complex row per spatial
    bin; `functionals` casts a field's real rows to complex rows first (see
    `_fft_rows`).  The engine is diagonal on every resolvable circular bin,
    so its lmax is angles // 2 whatever the config's lmax says.

    At d = 3 the basis is the real spherical harmonics on a ring x
    uniform-azimuth rule, where the map is also circulant in azimuth, so it
    splits into an fft along each ring and one polar matrix per azimuthal
    order (as in SHTns).  The substep steps the spectrum's rows in place,
    SPHERE_BLOCK_ROWS rows at a time in bin-major order: an fft along the
    rings, one batched product over every fft bin for the coefficients, one
    more for their synthesis times expm1(lambda_l dt), added to the bins,
    and an ifft into the rows (see `_per_order`).
    """

    def __init__(self, kernel, angular, lmax, dt):
        super().__init__(dt)
        if not isinstance(angular, SphereQuadrature):
            raise ParameterOutOfRange(
                "sphere-spectral backend needs SphereQuadrature angular nodes"
            )
        self.kernel = kernel
        self.angular = angular
        self.d = kernel.base.d
        m = len(angular.weights)
        self.lmax = m // 2 if self.d == 2 else min(lmax, angular.lmax_cap())
        self.D0, self.D1, with_b1 = energy_constants(kernel)
        self.sigma = _sigma_table(kernel, self.lmax, with_b1)
        if self.d == 2:
            k = np.arange(m)
            # |k| of each fft bin in fftfreq order: the degree it counts to
            self.bin_degree = np.minimum(k, m - k)
            # the circle rule weighs every node 2 pi / m, and
            # (2 pi / m) sum_j |z_j|^2 = (2 pi / m) / m sum_k |Z_k|^2
            self.node_weight = 2.0 * np.pi / m
            self.bin_scale = self.node_weight / m
        else:
            polar = self._polar_table(angular)
            self.project = self.ring_weight[:, None] * polar
        if dt is None:
            return
        if _null_kernel(kernel):
            lam = np.zeros(self.lmax + 1)
        else:
            lam = funk_hecke_eigs(kernel, self.lmax).lambdas
        if self.d == 3:
            # bin k of ring i gains az sum_l P_l^|k|(t_i) expm1(lambda_l dt) C_l[k]
            grow = self.ring_shape[1] * np.expm1(lam * dt)
            self.increment = polar * grow
        else:
            self.factor = np.exp(lam * dt)
            # the factor of each fft bin, once per float of a complex row
            self.bin_factor = np.repeat(self.factor[self.bin_degree], 2)
        # int_0^dt e^{2 lam t} dt per degree, stable at lam = 0
        self.decay = np.full_like(lam, dt)
        nz = lam != 0.0
        self.decay[nz] = np.expm1(2.0 * lam[nz] * dt) / (2.0 * lam[nz])

    def _polar_table(self, angular):
        """
        The d = 3 polar factors of `_per_order`, (az, rings, lmax + 1):
        P_l^|k|(t_i) at ring i for degree l and each fft bin k in fftfreq
        order, and 0 where l < |k|, so a bin |k| > lmax reads nothing.  The
        rule must be rings of az nodes, ring i at one polar cosine t_i and one
        weight w_i, node j at azimuth 2 pi j / az (as `polar_quadrature`
        builds them), with 2 lmax < az so that the bins |k| <= lmax are
        distinct.  There the harmonics of order m > 0 are sqrt(2) P_l^m(t)
        times cos(m phi) and sin(m phi), which read a ring's fft bins Z[+-m].
        With the coefficients C_l[k] = sum_i w_i P_l^|k|(t_i) Z_i[k], a row's
        mass of degree l is sum_|k|<=l |C_l[k]|^2, and adding c * g_l of
        every harmonic adds az g_l P_l^|k|(t_i) C_l[k] to Z_i[k].  P is the
        basis at azimuth 0, the m > 0 columns divided by sqrt(2).
        """
        nodes, n = angular.nodes, len(angular.weights)
        changes = np.flatnonzero(nodes[:, 2] != nodes[0, 2])
        az = int(changes[0]) if changes.size else n
        rings = n // az
        first = nodes[: rings * az : az]
        phi = 2.0 * np.pi * np.arange(az) / az
        spin = np.stack([np.cos(phi), np.sin(phi), np.ones(az)], axis=-1)
        product = (first[:, None, [0, 0, 2]] * spin).reshape(-1, 3)
        w = angular.weights[: rings * az : az]
        if not (
            rings * az == n
            and 2 * self.lmax < az
            and np.allclose(nodes, product, rtol=0.0, atol=1e-12)
            and np.allclose(angular.weights, np.repeat(w, az), rtol=1e-12, atol=0.0)
        ):
            raise ParameterOutOfRange(
                "sphere-spectral d = 3 needs rings of equally weighted nodes at "
                "azimuths 2 pi j / az with 2 lmax < az, as polar_quadrature builds them"
            )
        self.ring_shape = (rings, az)
        self.ring_weight = w
        basis = basis_at_directions(3, first, self.lmax)
        l = np.arange(self.lmax + 1)
        k = np.minimum(np.arange(az), az - np.arange(az))[:, None]
        polar = np.where(l >= k, basis[:, l * l + l + np.minimum(k, self.lmax)], 0.0)
        polar[:, 1:] /= np.sqrt(2.0)
        return polar.transpose(1, 0, 2)

    def _fft_rows(self, rows, z=None):
        """
        The fft of rows along the last axis, in z, a complex array of their
        shape (the "batch" slot by default): rows are copied into z, real
        rows cast to complex, and z is transformed in place, so that numpy
        makes no complex copy of its own.
        """
        if z is None:
            z = self._take("batch", rows.shape, complex)
        np.copyto(z, rows)
        return np.fft.fft(z, axis=-1, out=z)

    def _bin_masses(self, z, row_weight):
        """
        Per-degree masses of the (..., n) fft bins z of rows along the angle
        axis.  Row r weighs row_weight_r (or one scalar for all).  A row's
        |Z_l|^2 + |Z_-l|^2 is the sum of its real and imaginary parts'
        masses of degree l, so the bin powers fold to masses.  The powers
        take the "out" slot.
        """
        parts = z.view(float)
        sq = np.square(parts, out=self._take("out", parts.shape))
        per_bin = _row_sum(row_weight, sq).reshape(-1, 2).sum(axis=1)
        masses = np.bincount(self.bin_degree, per_bin, minlength=self.lmax + 1)
        return masses * self.bin_scale

    def _per_order(self, rows, row_weight, stepping, stream=None):
        """
        Per-degree harmonic masses (d = 3) of rows, a C-ordered (..., n)
        array, real or complex, and the beyond-band remainder; row r weighs
        row_weight_r (or one scalar for all), on each of its real and
        imaginary parts.  When `stepping`, rows is also scattered in place,
        and ||u||^2 after it is returned (else None); a `stream` (a
        `_Stream`, rows being the march's spectrum) first streams each
        block's rows in place, while they are in cache, before anything else
        reads them.

        It works SPHERE_BLOCK_ROWS rows at a time in bin-major order.  A
        block's rows are copied, real rows cast to complex, into the
        transpose of an (az, rings, rows) complex "batch" slot and fft'd there
        (see `_fft_rows`), so that each fft bin is one real (rings, 2 rows)
        matrix.  One batched product over every bin with the polar table (0
        on the bins |k| > lmax, see `_polar_table`) gives the coefficients
        C_l[k] in the "coef" slot, and the masses are sum |C|^2.  A step adds
        a second product, the synthesis times expm1(lambda_l dt), to the slot
        and ifft's it into the rows.  ||u||^2 before and after is the
        quadrature of the block's squares, before the fft and after the ifft.

        The blocks touch disjoint rows, so `_in_order` steps them in W =
        min(CPUs, blocks) contiguous chunks, chunk i in slot set i; numpy
        releases the interpreter lock in the ffts, products and ufuncs.
        Each block's per-degree masses and ||u||^2 before and after are added
        in block order, as one thread would, so no output bit depends on W.
        """
        rings, az = self.ring_shape
        lmax = self.lmax
        # a step writes rows through this view, so it may not be a copy
        flat = rows.reshape(-1, rings * az, copy=False if stepping else None)
        # ||u||^2 of a row is the quadrature of its parts' squares
        values = flat.view(float)
        quad_weight = np.repeat(self.angular.weights, values.shape[1] // flat.shape[1])
        w = np.ravel(row_weight)

        def order_block(start, slots):
            block = values[start : start + SPHERE_BLOCK_ROWS]
            count = len(block)
            if stream is not None:
                stream.apply(flat[start : start + count], start)
            weight = np.broadcast_to(w if w.size == 1 else w[start : start + count], count)
            scratch = self._take("bins", block.shape, slots=slots)
            before = _norm_sq(block, quad_weight, weight, scratch)
            rows = flat[start : start + count].reshape(count, rings, az)
            # bin, ring, row
            z = self._take("batch", (az, rings, count), complex, slots)
            self._fft_rows(rows, z.transpose(2, 1, 0))
            parts = z.view(float)
            coef = self._take("coef", (az, 2 * count, lmax + 1), slots=slots)
            np.matmul(parts.transpose(0, 2, 1), self.project, out=coef)
            sq = np.square(coef, out=self._take("bins", coef.shape, slots=slots))
            per_degree = np.matmul(np.repeat(weight, 2), sq).sum(axis=0)
            if not stepping:
                return per_degree, before, None
            grow = self._take("bins", parts.shape, slots=slots)
            parts += np.matmul(self.increment, coef.transpose(0, 2, 1), out=grow)
            np.fft.ifft(z.transpose(2, 1, 0), axis=-1, out=rows)
            after = _norm_sq(block, quad_weight, weight, scratch)
            return per_degree, before, after

        starts = range(0, len(flat), SPHERE_BLOCK_ROWS)
        chunks = np.array_split(starts, min(_cpus(), len(starts)))
        while len(self._slot_sets) < len(chunks):
            self._slot_sets.append({})

        def order_chunk(i):
            return [order_block(start, self._slot_sets[i]) for start in chunks[i]]

        blocks = _in_order(order_chunk, range(len(chunks)))
        resolved = np.zeros(lmax + 1)
        before, after = 0.0, (0.0 if stepping else None)
        for block_degree, block_before, block_after in sum(blocks, []):
            resolved += block_degree
            before += block_before
            if stepping:
                after += block_after
        return resolved, max(before - float(resolved.sum()), 0.0), after

    def functionals(self, values, row_weight):
        """Instantaneous (||u||^2, ||u||^2_{Hs}) in the marcher's accounting."""
        if self.d == 2:
            rows = self._fft_rows(values.reshape(-1, values.shape[-1]))
            resolved, unresolved = self._bin_masses(rows, row_weight), 0.0
        else:
            resolved, unresolved, _ = self._per_order(values, row_weight, False)
        l2sq = float(resolved.sum()) + unresolved
        hssq = float(np.sum(self.sigma * resolved))
        return l2sq, hssq

    def scatter_spectrum(self, spec, row_weight, stream=None):
        """
        Scattering over dt on the spectrum, in place, after streaming it by
        `stream` when one is given (at d = 3 block by block, see
        `_per_order`); row_weight weighs each row of spec, or is one scalar
        for all.  Returns the substep's
        (int ||u||^2 dtau, int ||u||^2_Hs dtau) and ||u||^2 after it, taken
        from the stepped rows.
        """
        if self.d == 2:
            _stream(spec, stream)
            np.fft.fft(spec, axis=-1, out=spec)
            resolved = self._bin_masses(spec, row_weight)
            unresolved = 0.0
            parts = spec.view(float)
            np.multiply(parts, self.bin_factor, out=parts)
            np.fft.ifft(spec, axis=-1, out=spec)
            per_row = np.einsum("...j,...j->...", parts, parts)
            l2sq = float(_row_sum(row_weight, per_row[..., None])[0]) * self.node_weight
        else:
            resolved, unresolved, l2sq = self._per_order(spec, row_weight, True, stream)
        l2_int = float(np.sum(resolved * self.decay)) + unresolved * self.dt
        hs_int = float(np.sum(self.sigma * resolved * self.decay))
        return l2_int, hs_int, l2sq


class _ProjectedEngine(_Engine):
    """
    RK4 on the stereographic plane form with de-aliasing and mass repair,
    for a dt within the power-iteration bound `dt_bound`.  The substep is
    linear and the same for every row, so on planes of at most MAP_MAX_NODES
    nodes it is one n_nodes x n_nodes map M, and on planes of at most
    FORM_MAX_NODES nodes its H^s integral is one quadratic form, `form`;
    both are built with the engine, and are None where the plane is over
    their limit.
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
    #: largest mapped plane whose substep H^s integral is one quadratic form
    #: (see the module docstring): on one BLAS thread the form beat the two
    #: plane FFT seminorms at d = 2 n <= 512 and lost at n = 1024 and on the
    #: d = 3 32^2 plane
    FORM_MAX_NODES = 512

    def __init__(self, kernel, angular, lmax, dt):
        if not isinstance(angular, ProjectedAngularGrid):
            raise ParameterOutOfRange(
                "projected-plane backend needs ProjectedAngularGrid angular nodes"
            )
        if isinstance(kernel, HGSpec):
            raise ParameterOutOfRange(
                "projected-plane backend integrates the limiting kernel only"
            )
        super().__init__(dt)
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
        self.D0, self.D1, _ = energy_constants(kernel)
        if kernel.h is not None:
            z = direction_cosines(angular.nodes)
            self.hmat = kernel.remainder(z) * angular.weights[None, :]
            self.hrow = self.hmat.sum(axis=1)
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
        n = len(angular.weights)
        self.wsum = float(angular.weights.sum())
        if dt is None:
            return
        # dt bound from a deterministic power-iteration radius estimate
        v = np.random.default_rng(1234).standard_normal(n)
        rho = 1.0
        for _ in range(60):
            av = self.apply(v)
            rho = float(np.linalg.norm(av) / np.linalg.norm(v))
            v = av / np.linalg.norm(av)
        self.dt_bound = self.RK4_REACH / rho
        if dt > self.dt_bound:
            raise StabilityViolation(
                f"dt={dt} exceeds projected-backend bound {self.dt_bound:.3e}"
            )
        self.M = self._substep_map() if n <= self.MAP_MAX_NODES else None
        self.form = None
        if self.M is not None and n <= self.FORM_MAX_NODES:
            self.form = self._hs_form(self.M)

    def apply(self, flat):
        """Operator on (..., n_nodes) value arrays."""
        f = flat.reshape(flat.shape[:-1] + self.pshape)
        out = (self.front * self.plane.core(f)).reshape(flat.shape)
        if self.hmat is not None:
            out = out + flat @ self.hmat.T - self.hrow * flat
        return out

    def _substep(self, values):
        """RK4 over dt, the two-thirds plane filter and the mass repair: a
        linear map of each row, the same for every row."""
        dt = self.dt
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

    def _substep_map(self):
        """`_substep` as the matrix M with _substep(v) = v @ M: the identity
        pushed through it, MAP_BUILD_ROWS rows at a time."""
        n = len(self.angular.weights)
        M = np.empty((n, n))
        for i in range(0, n, self.MAP_BUILD_ROWS):
            rows = min(self.MAP_BUILD_ROWS, n - i)
            M[i : i + rows] = self._substep(np.eye(rows, n, k=i))
        return M

    def _hs_form(self, M):
        """
        Q + M Q M^T, with Q = Re(F diag(hs_weight) F^H) the Gram matrix of
        the plane seminorm and F the plane rfftn of diag(w0): for a row v,
        v (Q + M Q M^T) v^T = seminorm_sq(v) + seminorm_sq(v M), the two ends
        of the substep's trapezoid.
        """
        n = M.shape[0]
        rows = np.diag(self.plane.w0.ravel()).reshape((n,) + self.pshape)
        F = np.fft.rfftn(rows, axes=self.paxes).reshape(n, -1)
        F *= np.sqrt(self.plane.hs_weight)
        Q = F.real @ F.real.T + F.imag @ F.imag.T
        return Q + M @ Q @ M.T

    def scatter_spectrum(self, spec, row_weight, stream=None):
        """
        Scattering over dt on the spectrum, in place, after streaming it by
        `stream` when one is given; row_weight weighs each row of spec, or
        is one scalar for all.  The substep is real-linear,
        so it steps the real and imaginary parts as one real batch of rows,
        each part with its row's weight.  Returns the substep's
        (int ||u||^2 dtau, int ||u||^2_Hs dtau) and ||u||^2 after it.
        """
        _stream(spec, stream)
        n = spec.shape[-1]
        rows = spec.size // n
        flat = self._take("batch", (2 * rows, n))
        np.copyto(flat[:rows].reshape(spec.shape), spec.real)
        np.copyto(flat[rows:].reshape(spec.shape), spec.imag)
        row_weight = np.ravel(row_weight)
        if row_weight.size > 1:
            row_weight = np.tile(row_weight, 2)
        w = self.angular.weights
        # the output's bytes serve as scratch until the step writes them
        out = self._take("out", flat.shape)
        pre_l2 = _norm_sq(flat, w, row_weight, out)
        if self.form is None:
            hs_ends = self._hs_total(flat, row_weight, out)
        else:
            # both ends of the trapezoid, from the pre-step values
            per_row = np.einsum("ij,ij->i", np.matmul(flat, self.form, out=out), flat)
            hs_ends = float(_row_sum(row_weight, per_row[:, None])[0])
        if self.M is None:
            out = self._substep(flat)
        else:
            np.matmul(flat, self.M, out=out)
        # the input batch is consumed: the squares take its bytes
        post_l2 = _norm_sq(out, w, row_weight, flat)
        if post_l2 > pre_l2 * (1.0 + GROWTH_TOL):
            raise StabilityViolation(
                f"projected scattering grew L2 by {post_l2 / pre_l2 - 1.0:.3e}"
            )
        if self.form is None:
            hs_ends += self._hs_total(out, row_weight, flat)
        spec.real = out[:rows].reshape(spec.shape)
        spec.imag = out[rows:].reshape(spec.shape)
        return 0.5 * self.dt * (pre_l2 + post_l2), 0.5 * self.dt * hs_ends, post_l2

    def _hs_total(self, values, row_weight, scratch):
        """
        int ||(-Lap)^{s/2} (u w0)||^2 over space: row-weighted seminorms.
        Its temporaries take the "coef" slot and the bytes of `scratch`, a
        dead C-ordered array of the values' shape.
        """
        f = values.reshape(values.shape[:-1] + self.pshape)
        half = f.shape[:-1] + (f.shape[-1] // 2 + 1,)
        per_x = self.plane.seminorm_sq(
            f, scratch.reshape(f.shape), self._take("coef", half, complex)
        )
        return float(_row_sum(row_weight, per_x.reshape(-1, 1))[0])

    def functionals(self, values, row_weight):
        """Instantaneous (||u||^2, ||u||^2_{Hs}) in the marcher's accounting."""
        flat = values.reshape(-1, values.shape[-1])
        scratch = self._take("out", flat.shape)
        l2sq = _norm_sq(flat, self.angular.weights, row_weight, scratch)
        return l2sq, self._hs_total(flat, row_weight, scratch)


def _engine_for(cfg, u, stepping=True):
    """A new scattering engine on u's angular grid for cfg.dt (see `_Engine`),
    or, without `stepping`, one that serves `functionals` only."""
    cls = _SpectralEngine if cfg.backend == "sphere-spectral" else _ProjectedEngine
    return cls(cfg.kernel, u.angular, cfg.lmax, cfg.dt if stepping else None)


def strang_step_energy(u, dt, cfg):
    """
    transport(dt/2), scattering(dt), transport(dt/2), plus the scattering
    substep's time integrals (int ||u||^2 dtau, int ||u||^2_{Hs} dtau).
    Transport is unitary, so these are the whole step's integrals too.  This
    is the one step of a `run` to t = dt, as its observer sees it, so u must
    be nonnegative and the step passes the run's checks.
    """
    seen = []
    one = replace(cfg, dt=dt, t_end=dt, snapshot_every=0)
    run(one, u, lambda v, dl2, dhs, _: seen.append((v, dl2, dhs)))
    return seen[-1]


def energy_functionals(u, cfg):
    """Instantaneous (||u||^2, ||u||^2_{Hs}) as the marcher accounts them.
    The engine has no substep: no dt bound, map or form is built."""
    eng = _engine_for(cfg, u, stepping=False)
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
    n_steps = cfg.steps()
    eng = _engine_for(cfg, u0)
    g, angular = u0.spatial, u0.angular

    def functionals(values):
        return eng.functionals(values, g.cell_volume())

    half = _Stream.over(g, angular, 0.5 * cfg.dt)
    full = half.squared()
    row_weight = _parseval_weights(g)
    zero_row = (0,) * g.d
    spec = _to_spectrum(u0)
    # before u0's norms and the first observer call borrow the workspace
    eng.start(spec)
    time = u0.time
    # data whose norms overflow is rejected below, so numpy need not warn;
    # with no mass (a zero or subnormal field) no drift can be measured
    with np.errstate(over="ignore"):
        mass0 = u0.mass()
        l2_prev_step, linf0 = eng.norms(u0)
    if not (0.0 < mass0 < math.inf and math.isfinite(l2_prev_step)):
        raise ParameterOutOfRange(
            f"initial data must have finite positive mass and finite L2, got "
            f"{mass0:.3e} and {l2_prev_step:.3e}"
        )
    l2_prev_emit = l2_prev_step
    hs_total = 0.0
    win_l2 = 0.0
    win_hs = 0.0
    records = [
        DiagnosticsRecord(time, mass0, l2_prev_step, linf0, 0.0, 0.0)
    ]
    snapshots = [u0.copy()] if cfg.snapshot_every else []
    if observe is not None:
        observe(u0, 0.0, 0.0, functionals)
    for step in range(1, n_steps + 1):
        dl2, dhs, l2sq = eng.scatter_spectrum(spec, row_weight, half if step == 1 else full)
        # two half-steps, added in order
        time = time + 0.5 * cfg.dt + 0.5 * cfg.dt
        win_l2 += dl2
        win_hs += dhs
        # a non-finite entry, or one whose square overflows, makes the
        # Parseval sum non-finite
        if not math.isfinite(l2sq):
            raise InvariantViolation(f"non-finite L2 at t={time:.6g}")
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
        # a new array only when the observer or a snapshot may keep it
        keep = snap or observe is not None
        u = PhaseField(g, angular, eng.field(g, spec, half, keep), time)
        if observe is not None:
            observe(u, dl2, dhs, functionals)
        if emit:
            l2_emit, linf = eng.norms(u)
            hs_total += win_hs
            residual = (
                0.5 * l2_prev_emit**2
                + eng.D1 * win_l2
                - 0.5 * l2_emit**2
                - eng.D0 * win_hs
            )
            records.append(
                DiagnosticsRecord(time, mass_now, l2_emit, linf, hs_total, residual)
            )
            l2_prev_emit = l2_emit
            win_l2 = 0.0
            win_hs = 0.0
        if snap:
            snapshots.append(u)
        # a new field that no one kept is freed here, not at the next emit
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
    # the profile divides by 2 sigma^2, a float > 0 (it rejects nan and inf too)
    if not (sigma > 0.0 and 0.0 < 2.0 * sigma * sigma < math.inf):
        raise ParameterOutOfRange(
            f"need sigma > 0 with 2 sigma^2 finite and > 0, got {sigma}"
        )
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
        # past overflow of 1/sigma_theta^2 the beam is 0/0 at e0, or zero at
        # every node but the ones on e0
        var = float(sigma_theta) * float(sigma_theta)
        if not (var > 0.0 and np.isfinite(var) and np.isfinite(1.0 / var)):
            raise ParameterOutOfRange(
                f"need sigma_theta^2 and 1/sigma_theta^2 finite, got {sigma_theta}"
            )
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
            col = sectoral_harmonic(nodes, degree)
            peak = np.max(np.abs(col))
            if not peak > 0.0:
                raise ParameterOutOfRange(
                    f"the degree {degree} harmonic is 0 at every node of this grid"
                )
            harm = col / peak
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
    payload = np.ascontiguousarray(u.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        # straight from the array's buffer: .tobytes() would copy the field
        fh.write(memoryview(payload).cast("B"))


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
