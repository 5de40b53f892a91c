"""
Fractional Laplacians on truncated plane grids.

Three realizations of the same operator family live here:

``frac_lap_spectral``
    (-Lap)^s via the FFT multiplier |xi|^{2s} on the periodized grid.  Fast,
    used by the projected solver backend; accurate when the field decays
    inside the box.
``frac_lap_quadrature``
    Direct singular-integral quadrature, c_{n,s} PV int (f(v)-f(v+z))/|z|^{n+2s} dz,
    with a Taylor-corrected central cell and an analytic far tail.  Slow;
    serves as the independent oracle for the other two.
``frac_lap_g``
    The bounded Henyey-Greenstein regularization built on the kernel

        1/delta_g(v,v') = (1+g) ((1-g)^2 <v>^2 <v'>^2 + 4g|v-v'|^2)^{-alpha},

    which converges as g -> 1 to kappa (-Lap)^s with
    kappa = 2^{2-d-2s} / c_{d-1,s}.  The grid sum alone is badly truncated
    (the dropped exterior term is order f(v), not small), so an exterior-tail
    term is always added: a coarse midpoint sum over a surrounding frame plus
    a closed-form remainder beyond it.

The Bessel identity (-Lap)^s <v>^{-(d-1-2s)} = c_bessel <v>^{-(d-1+2s)} gives
a self-contained accuracy probe, exposed as ``bessel_identity_residual``.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import BoundaryLeakage, ParameterOutOfRange
from .geom import bracket, check_dimension
from .kernels import bessel_constant, frac_constant

#: warn when boundary magnitude exceeds this fraction of the field maximum
LEAKAGE_FRACTION = 1.0e-6
#: half-width of `PlaneGrid.interior_mask`'s box, as a fraction of L
INTERIOR_FRACTION = 0.5
#: radius of `frac_lap_quadrature`'s Taylor-corrected near field
NEAR_RADIUS = 1.0
#: target rows per dense kernel block of `frac_lap_g` (memory control: a
#: d = 3 n = 128 block holds 256 x 16384 doubles per kernel-sized array)
HG_BLOCK = 256
#: `frac_lap_g`'s exterior frame reaches HG_FAR_FACTOR * L, sampled at
#: HG_COARSE_FACTOR times the lattice spacing
HG_FAR_FACTOR = 8.0
HG_COARSE_FACTOR = 4.0
#: targets per block of the exterior frame sum (memory control: a d = 3
#: n = 128 frame has about 64k points)
HG_TAIL_BLOCK = 64


@dataclass(frozen=True)
class PlaneGrid:
    """
    Uniform lattice [-L, L)^{d-1} with spacing h = 2L/n per axis.

    n must be a power of two (FFT), h <= 0.5 (resolution floor) and L >= 8
    (the stereographic weight must have room to decay).
    """

    d: int
    L: float
    n: int

    def __post_init__(self):
        check_dimension(self.d)
        if self.n < 2 or (self.n & (self.n - 1)) != 0:
            raise ParameterOutOfRange(f"n must be a power of two, got {self.n}")
        if not (np.isfinite(self.L) and self.L >= 8.0):
            raise ParameterOutOfRange(f"need finite L >= 8, got L = {self.L}")
        if self.h > 0.5:
            raise ParameterOutOfRange(f"need spacing 2L/n <= 0.5, got {self.h}")

    @property
    def h(self):
        return 2.0 * self.L / self.n

    @property
    def ndim(self):
        """Plane dimension n = d - 1."""
        return self.d - 1

    @property
    def shape(self):
        return (self.n,) * self.ndim

    def axis(self):
        """1-D lattice coordinates -L + h k."""
        return -self.L + self.h * np.arange(self.n)

    def points(self):
        """All lattice points, shape grid.shape + (ndim,)."""
        ax = self.axis()
        if self.ndim == 1:
            return ax[:, None]
        vx, vy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([vx, vy], axis=-1)

    def bracket(self):
        """<v> on the lattice."""
        return bracket(self.points())

    def freq(self):
        """Angular frequencies per axis for the periodized lattice."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def interior_mask(self):
        """Boolean mask of the centered box with half-width INTERIOR_FRACTION * L."""
        ax = np.abs(self.axis()) <= INTERIOR_FRACTION * self.L
        if self.ndim == 1:
            return ax
        return ax[:, None] & ax[None, :]

    def cell_volume(self):
        return self.h**self.ndim


@dataclass
class PlaneField:
    """A real field sampled on a PlaneGrid."""

    grid: PlaneGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ParameterOutOfRange(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ParameterOutOfRange("field contains non-finite entries")


def _values(f):
    return np.asarray(getattr(f, "values", f), dtype=float)


def weight_profile(grid, s):
    """The stereographic weight <v>^{-(d-1-2s)} on the lattice."""
    return grid.bracket() ** (-(grid.d - 1 - 2.0 * s))


def to_weighted(grid, u_plane, s):
    """w = u_J / <v>^{d-1-2s}: divide out the weight that makes the operator exact."""
    return _values(u_plane) / grid.bracket() ** (grid.d - 1 - 2.0 * s)


def _check_leakage(grid, f, who):
    edge = np.zeros(grid.shape, dtype=bool)
    if grid.ndim == 1:
        edge[0] = edge[-1] = True
    else:
        edge[0, :] = edge[-1, :] = True
        edge[:, 0] = edge[:, -1] = True
    fmax = np.abs(f).max()
    if fmax > 0 and np.abs(f[edge]).max() > LEAKAGE_FRACTION * fmax:
        warnings.warn(
            BoundaryLeakage(
                f"{who}: field carries {np.abs(f[edge]).max() / fmax:.2e} of its maximum "
                "on the grid boundary; the periodization is polluted"
            )
        )


def lattice_k2(k, ndim):
    """|k|^2 on the ndim-dimensional tensor lattice of the per-axis
    wavenumbers k, FFT order: k_0^2 + k_1^2 + ..., summed in axis order."""
    sq = k**2
    k2 = sq
    for _ in range(1, ndim):
        k2 = np.add.outer(k2, sq)
    return k2


def parseval_weights(n, ndim, cell_volume):
    """
    One weight per bin of the rfftn half-spectrum F of a field f on an
    n^ndim lattice: sum_k w_k |F_k|^2 = cell_volume sum_x |f_x|^2.  Along
    the last axis the stored half holds one bin of each conjugate pair,
    which counts twice, except bin 0 and, for even n, the Nyquist bin n/2,
    which are their own partners and count once.
    """
    mult = np.full(n // 2 + 1, 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[-1] = 1.0
    return np.broadcast_to(cell_volume / n**ndim * mult, (n,) * (ndim - 1) + mult.shape)


def frac_lap_spectral(grid, f, s):
    """
    (-Lap)^s f through the Fourier multiplier |xi|^{2s} on the periodized lattice.

    The zero mode is annihilated exactly.  Emits BoundaryLeakage when the field
    does not vanish (relatively, at 1e-6) on the boundary ring.
    """
    f = _values(f)
    if not (0.0 < s < 1.0):
        raise ParameterOutOfRange(f"need 0 < s < 1, got s = {s}")
    _check_leakage(grid, f, "frac_lap_spectral")
    k = grid.freq()
    if grid.ndim == 1:
        mult = np.abs(k) ** (2.0 * s)
        return np.fft.ifft(mult * np.fft.fft(f)).real
    mult = lattice_k2(k, 2) ** s
    return np.fft.ifft2(mult * np.fft.fft2(f)).real


def _laplacian_fd(grid, f):
    """Second-order centered Laplacian with periodic wrap (used only for cell corrections)."""
    f = _values(f)
    h2 = grid.h**2
    out = (np.roll(f, 1, axis=0) - 2.0 * f + np.roll(f, -1, axis=0)) / h2
    if grid.ndim == 2:
        out = out + (np.roll(f, 1, axis=1) - 2.0 * f + np.roll(f, -1, axis=1)) / h2
    return out


def _ring_area(n):
    """|S^{n-1}|: 2 for n = 1, 2 pi for n = 2."""
    return 2.0 if n == 1 else 2.0 * np.pi


def _equal_volume_radius(grid):
    """Radius of the ball with one cell's volume (matches the punctured-cell correction)."""
    return grid.h / 2.0 if grid.ndim == 1 else grid.h / np.sqrt(np.pi)


def _near_cell_moment(n, s, h, near_offsets):
    """
    int_{union of near cells} |z|^2 |z|^{-n-2s} dz, cell-exact: the central cell
    in closed/1-D form, the others by tensor Gauss (integrand smooth there).
    """
    if n == 1:
        total = 2.0 * (h / 2.0) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
    else:
        # int over the central square of |z|^{-2s}: polar with rho_max = h/(2 cos phi)
        pq, pw = leggauss(32)
        phi = (np.pi / 8.0) * (pq + 1.0)
        total = 8.0 * np.sum(
            (np.pi / 8.0) * pw * (h / (2.0 * np.cos(phi))) ** (2.0 - 2.0 * s)
        ) / (2.0 - 2.0 * s)
    others = near_offsets[np.sum(near_offsets**2, axis=1) > 0]
    if len(others):
        gq, gw = leggauss(8)
        sub = 0.5 * h * gq
        wsub = 0.5 * h * gw
        if n == 1:
            zz = others[:, 0:1] + sub[None, :]
            total += np.sum(wsub[None, :] * np.abs(zz) ** (1.0 - 2.0 * s))
        else:
            zx = others[:, 0, None, None] + sub[None, :, None]
            zy = others[:, 1, None, None] + sub[None, None, :]
            r2 = zx**2 + zy**2
            ww = wsub[None, :, None] * wsub[None, None, :]
            total += np.sum(ww * r2 ** (-(n + 2.0 * s - 2.0) / 2.0))
    return total


def _box_edges(grid, v):
    """Offset coordinates of the cell-union boundary around a target at v."""
    lo = -grid.L - grid.h / 2.0 - v
    hi = grid.L - grid.h / 2.0 - v
    return lo, hi


def _boundary_distance(phi, lo, hi):
    """Distance from 0 to the rectangle boundary along direction (cos phi, sin phi)."""
    c, sn = np.cos(phi), np.sin(phi)
    with np.errstate(divide="ignore"):
        tx = np.where(c > 0, hi[0] / c, np.where(c < 0, lo[0] / c, np.inf))
        ty = np.where(sn > 0, hi[1] / sn, np.where(sn < 0, lo[1] / sn, np.inf))
    return np.minimum(tx, ty)


def _tail_weight(grid, v, s):
    """int over the complement of the cell-union box of |z|^{-n-2s} dz."""
    lo, hi = _box_edges(grid, v)
    if grid.ndim == 1:
        return ((-lo[0]) ** (-2.0 * s) + hi[0] ** (-2.0 * s)) / (2.0 * s)
    phi = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    rho = _boundary_distance(phi, lo, hi)
    return np.mean(rho ** (-2.0 * s)) * 2.0 * np.pi / (2.0 * s)


def _tail_field_integral(grid, f_ext, v, s):
    """
    int over the box complement of f_ext(v+z) |z|^{-n-2s} dz; radial direction
    mapped by rho = rho_boundary * tau^{-1/(2s)} so the weight integrates exactly.
    """
    n = grid.ndim
    lo, hi = _box_edges(grid, v)
    tq, tw = leggauss(48)
    tau = 0.5 * (tq + 1.0)
    wt = 0.5 * tw
    stretch = tau ** (-1.0 / (2.0 * s))
    if n == 1:
        total = 0.0
        for edge, sign in ((hi[0], 1.0), (-lo[0], -1.0)):
            zs = sign * edge * stretch
            vals = f_ext((v[0] + zs)[:, None])
            total += edge ** (-2.0 * s) / (2.0 * s) * np.sum(wt * vals)
        return total
    pq, pw = leggauss(96)
    phi = np.pi * (pq + 1.0)
    wp = np.pi * pw
    rho_b = _boundary_distance(phi, lo, hi)
    rr = rho_b[:, None] * stretch[None, :]
    px = v[0] + rr * np.cos(phi)[:, None]
    py = v[1] + rr * np.sin(phi)[:, None]
    vals = f_ext(np.stack([px, py], axis=-1).reshape(-1, 2)).reshape(rr.shape)
    per_phi = rho_b ** (-2.0 * s) / (2.0 * s) * np.sum(wt[None, :] * vals, axis=1)
    return np.sum(wp * per_phi)


def frac_lap_quadrature(grid, f, s, targets, f_ext=None):
    """
    Singular-integral oracle for (-Lap)^s f at selected lattice points,

        c_{n,s} PV int (f(v) - f(v+z)) / |z|^{n+2s} dz.

    Inside |z| <= NEAR_RADIUS the local quadratic Taylor model of f is
    subtracted from the midpoint sum and restored through the cell-exact
    second moment of the kernel (the gradient term cancels by symmetry),
    which removes the singularity at second order.  Beyond the lattice the
    kernel tail is integrated exactly over the box complement, against
    f == 0 or against the supplied analytic extension ``f_ext`` (called with
    an (m, ndim) array).

    Slow by design; this is the oracle the fast backends are checked against.
    """
    f = _values(f)
    n = grid.ndim
    if not (0.0 < s < 1.0):
        raise ParameterOutOfRange(f"need 0 < s < 1, got s = {s}")
    c = frac_constant(n, s)
    h = grid.h
    r0 = NEAR_RADIUS
    pts = grid.points().reshape(-1, n)
    fflat = f.reshape(-1)
    lap = _laplacian_fd(grid, f).reshape(-1)

    # near-cell offset stencil, shared by every target
    reach = int(np.ceil(r0 / h))
    rng = h * np.arange(-reach, reach + 1)
    if n == 1:
        offsets = rng[:, None]
    else:
        ox, oy = np.meshgrid(rng, rng, indexing="ij")
        offsets = np.stack([ox.ravel(), oy.ravel()], axis=-1)
    near = offsets[np.sum(offsets**2, axis=1) <= r0 * r0 + 1e-12]
    near_k = _kernel_pow(np.sum(near**2, axis=1), n, s)
    w2 = _near_cell_moment(n, s, h, near)
    near_steps = np.round(near / h).astype(int)

    out = np.empty(len(targets))
    vol = grid.cell_volume()
    for i, t in enumerate(targets):
        ti = tuple(np.atleast_1d(t))
        idx = np.ravel_multi_index(ti, grid.shape)
        v = pts[idx]
        lo, hi = _box_edges(grid, v)
        if min(np.minimum(-lo, hi)) < r0 + 2 * h:
            raise ParameterOutOfRange("quadrature target too close to the boundary")
        # quadratic Taylor model from centered differences
        grad = np.empty(n)
        hess = np.empty((n, n))
        for a in range(n):
            up = list(ti)
            dn = list(ti)
            up[a] += 1
            dn[a] -= 1
            grad[a] = (f[tuple(up)] - f[tuple(dn)]) / (2.0 * h)
            hess[a, a] = (f[tuple(up)] - 2.0 * f[ti] + f[tuple(dn)]) / h**2
        if n == 2:
            pp = f[ti[0] + 1, ti[1] + 1]
            pm = f[ti[0] + 1, ti[1] - 1]
            mp = f[ti[0] - 1, ti[1] + 1]
            mm = f[ti[0] - 1, ti[1] - 1]
            hess[0, 1] = hess[1, 0] = (pp - pm - mp + mm) / (4.0 * h**2)

        near_idx = np.ravel_multi_index(
            tuple((np.atleast_1d(ti)[a] + near_steps[:, a]) for a in range(n)), grid.shape
        )
        taylor = (
            fflat[idx]
            + near @ grad
            + 0.5 * np.einsum("ij,jk,ik->i", near, hess, near)
        )
        near_sum = np.sum((fflat[near_idx] - taylor) * near_k) * vol
        near_part = -near_sum - (lap[idx] / (2.0 * n)) * w2

        z = pts - v[None, :]
        dist2 = np.sum(z * z, axis=1)
        far_mask = dist2 > r0 * r0 + 1e-12
        far_sum = np.sum(
            (fflat[idx] - fflat[far_mask]) * dist2[far_mask] ** (-(n + 2.0 * s) / 2.0)
        ) * vol
        tail = fflat[idx] * _tail_weight(grid, v, s)
        if f_ext is not None:
            tail -= _tail_field_integral(grid, f_ext, v, s)
        out[i] = c * (near_part + far_sum + tail)
    return out


def _kernel_pow(r2, n, s):
    """|z|^{-n-2s} from squared distances, zero-safe (the origin maps to 0)."""
    with np.errstate(divide="ignore"):
        return np.where(r2 > 0, r2 ** (-(n + 2.0 * s) / 2.0), 0.0)


def hg_kernel(hg, v, vp):
    """
    The regularized interaction 1/delta_g between plane points, broadcasting
    over leading axes of v and vp (components on the last axis).
    """
    v, vp = np.asarray(v, dtype=float), np.asarray(vp, dtype=float)
    return _hg_kernel(hg, v, vp, _bracket_sq(v), _bracket_sq(vp))


def _bracket_sq(vp):
    """1 + |vp|^2 over the last axis: the points' term of `hg_kernel`, which
    `frac_lap_g` computes once for every lattice point."""
    return 1.0 + np.sum(vp * vp, axis=-1)


def _hg_kernel(hg, v, vp, br2, brp2):
    """`hg_kernel` with br2 = _bracket_sq(v) and brp2 = _bracket_sq(vp) given."""
    g, alpha = hg.g, hg.base.alpha
    diff = v - vp
    q = (1.0 - g) ** 2 * br2 * brp2 + 4.0 * g * np.sum(diff * diff, axis=-1)
    return (1.0 + g) * q ** (-alpha)


def kappa_limit(d, s):
    """The g -> 1 limit constant: (-Lap)^s_g -> kappa (-Lap)^s with kappa = 2^{2-d-2s}/c_{d-1,s}."""
    return 2.0 ** (2.0 - d - 2.0 * s) / frac_constant(d - 1, s)


def _hg_center_correction(grid, hg, br2, lap_at_targets):
    """Second-order Taylor value of the punctured central cell for the bounded
    kernel; br2 is 1 + |v|^2 of each target."""
    n = grid.ndim
    g, alpha = hg.g, hg.base.alpha
    r = _equal_volume_radius(grid)
    zq, zw = leggauss(32)
    rho = 0.5 * r * (zq + 1.0)
    w = 0.5 * r * zw
    base = (1.0 - g) ** 2 * br2 * br2  # <v+z> ~ <v> inside one cell
    q = base[:, None] + 4.0 * g * rho[None, :] ** 2
    kern = (1.0 + g) * q ** (-alpha)
    if n == 1:
        i2 = 2.0 * np.sum(w[None, :] * rho[None, :] ** 2 * kern, axis=1)
    else:
        i2 = 2.0 * np.pi * np.sum(w[None, :] * rho[None, :] ** 3 * kern, axis=1)
    return -(lap_at_targets / (2.0 * n)) * i2


def _hg_exterior_tail(grid, hg, targets_pts, br2):
    """
    T_out(v) = int_{outside the box} 1/delta_g dv' for each target: coarse
    midpoint lattice over the frame [-fL, fL]^n \\ [-L, L]^n, f = HG_FAR_FACTOR,
    plus the closed power-law remainder beyond fL.  br2 is 1 + |v|^2 of each
    target.
    """
    n = grid.ndim
    g, alpha = hg.g, hg.base.alpha
    L = grid.L
    Rf = HG_FAR_FACTOR * L
    hc = HG_COARSE_FACTOR * grid.h
    ax = np.arange(-Rf + hc / 2.0, Rf, hc)
    if n == 1:
        frame = ax[np.abs(ax) >= L][:, None]
    else:
        fx, fy = np.meshgrid(ax, ax, indexing="ij")
        keep = (np.abs(fx) >= L) | (np.abs(fy) >= L)
        frame = np.stack([fx[keep], fy[keep]], axis=-1)
    frame_br2 = _bracket_sq(frame)
    tails = np.empty(len(targets_pts))
    for start in range(0, len(targets_pts), HG_TAIL_BLOCK):
        block = slice(start, start + HG_TAIL_BLOCK)
        kern = _hg_kernel(hg, targets_pts[block, None], frame, br2[block, None], frame_br2)
        tails[block] = np.sum(kern, axis=1) * hc**n
    # beyond Rf the kernel is (1+g) (A_inf |v'|^2)^{-alpha} (1 + O(|v|/|v'|))
    a_inf = (1.0 - g) ** 2 * br2 + 4.0 * g
    two_s = 2.0 * alpha - n
    tails += (1.0 + g) * a_inf ** (-alpha) * _ring_area(n) * Rf ** (-two_s) / two_s
    return tails


def frac_lap_g(grid, f, hg, targets=None):
    """
    The bounded regularization (-Lap)^s_g f on the lattice,

        (-Lap)^s_g f(v) = -int (f(v') - f(v)) / delta_g(v, v') dv',

    evaluated with the full grid sum, a Taylor-corrected central cell and the
    exterior tail (without which the result is wrong at order f(v)).

    targets is an optional array of index tuples (default: all lattice
    points); the kernel is built HG_BLOCK target rows at a time.
    """
    f = _values(f)
    n = grid.ndim
    pts = grid.points().reshape(-1, n)
    fflat = f.reshape(-1)
    lap = _laplacian_fd(grid, f).reshape(-1)
    if targets is None:
        t_idx = np.arange(len(pts))
        out_shape = grid.shape
    else:
        t_idx = np.asarray(
            [np.ravel_multi_index(tuple(np.atleast_1d(t)), grid.shape) for t in targets]
        )
        out_shape = (len(t_idx),)
    tpts = pts[t_idx]
    vol = grid.cell_volume()
    pts_br2 = _bracket_sq(pts)
    br2 = pts_br2[t_idx]
    out = np.empty(len(t_idx))
    for start in range(0, len(t_idx), HG_BLOCK):
        sl = slice(start, start + HG_BLOCK)
        kern = _hg_kernel(hg, tpts[sl, None], pts, br2[sl, None], pts_br2)
        kern[np.arange(len(kern)), t_idx[sl]] = 0.0  # punctured cell handled below
        out[sl] = -vol * (kern @ fflat - kern.sum(axis=1) * fflat[t_idx[sl]])
    out += _hg_center_correction(grid, hg, br2, lap[t_idx])
    out += fflat[t_idx] * _hg_exterior_tail(grid, hg, tpts, br2)
    return out.reshape(out_shape)


def _tail_cancelled_triple(p, c0, c1, c2):
    """
    Coefficients (1, -nu1, -nu2) such that sum_i coef_i <v/a_i>^{-p} decays like
    |v|^{-p-4}: the |v|^{-p} and |v|^{-p-2} orders of the three tails cancel.
    """
    A = np.array([[c1**p, c2**p], [c1 ** (p + 2), c2 ** (p + 2)]])
    nu = np.linalg.solve(A, np.array([c0**p, c0 ** (p + 2)]))
    return np.array([c0, c1, c2]), np.array([1.0, -nu[0], -nu[1]])


def bessel_probe(grid, s):
    """
    A closed-form test pair (F, (-Lap)^s F) built from scaled copies of the
    weight profile.

    Each member <v/a>^{-(d-1-2s)} satisfies the exact identity
    (-Lap)^s <v/a>^{-(d-1-2s)} = c_bessel a^{-2s} <v/a>^{-(d-1+2s)}.  A single
    profile cannot be validated on a periodized grid: its tail is too fat for
    the box and the multiplier kills the zero mode while the true operator has
    nonzero box mean.  The probe therefore combines six scales so that the two
    leading tail orders cancel (|v|^{-p} and |v|^{-p-2}, leaving |v|^{-p-4})
    and the total integral vanishes (no zero-frequency cusp error).  Returns
    (field, exact_rhs); the identity content is untouched, every coefficient
    multiplies an exact closed form.
    """
    # imported here: scipy.integrate is a heavy import (it pulls in
    # numpy.f2py), and no march or CLI start-up needs it
    from scipy import integrate

    nd = grid.ndim
    p = nd - 2.0 * s
    q = nd + 2.0 * s
    cb = bessel_constant(grid.d, s)
    s_f, c_f = _tail_cancelled_triple(p, 1.0, 2.0, 3.0)
    s_g, c_g = _tail_cancelled_triple(p, 1.5, 2.5, 3.5)

    def radial_mass(scales, coefs):
        ring = _ring_area(nd)

        def f(r):
            return sum(
                c * (1.0 + r * r / a**2) ** (-p / 2.0) for a, c in zip(scales, coefs)
            ) * r ** (nd - 1)

        body, _ = integrate.quad(f, 0.0, 2000.0, limit=500)
        return ring * body

    m_f = radial_mass(s_f, c_f)
    m_g = radial_mass(s_g, c_g)
    scales = np.concatenate([s_f, s_g])
    coefs = np.concatenate([c_f, -(m_f / m_g) * c_g])
    r2 = np.sum(grid.points() ** 2, axis=-1)
    field = sum(c * (1.0 + r2 / a**2) ** (-p / 2.0) for a, c in zip(scales, coefs))
    rhs = cb * sum(
        c * a ** (-2.0 * s) * (1.0 + r2 / a**2) ** (-q / 2.0) for a, c in zip(scales, coefs)
    )
    return field, rhs


def bessel_identity_residual(grid, s):
    """
    Relative L2 mismatch, over the centered half-width box, between the
    spectral fractional Laplacian of the Bessel probe field and its exact
    closed-form image c_bessel-weighted (see bessel_probe).

    The spectral output has zero box mean by construction; the exact mean of
    the right-hand side is restored before comparing, since that mode is
    carried by mass outside any truncated grid.
    """
    field, rhs = bessel_probe(grid, s)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLeakage)
        lhs = frac_lap_spectral(grid, field, s)
    lhs = lhs + rhs.mean()
    mask = grid.interior_mask()
    num = np.sqrt(np.sum((lhs[mask] - rhs[mask]) ** 2))
    den = np.sqrt(np.sum(rhs[mask] ** 2))
    return num / den
