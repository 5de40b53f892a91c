"""
Scattering kernels and the constants attached to them.

Two families matter here.  The limiting kernel

    b(z) = b1 (1 - z)^{-alpha} + h(z),      alpha = (d-1)/2 + s,

carries the non-integrable forward singularity, with an integrable remainder
h >= 0.  The rescaled Henyey-Greenstein family

    b^g(z) = (1 + g) / ((1 - g)^2 + 2 g (1 - z))^alpha + h(z),   g in (0, 1),

is bounded for every g < 1 and converges (locally uniformly on z < 1) to the
limiting kernel with strength b1 = 2^{1-alpha} as g -> 1.

Constants derived from a kernel:

    c_frac(n, s)    = 4^s Gamma(n/2 + s) / (pi^{n/2} |Gamma(-s)|)
                      (the fractional-Laplacian normalization on R^n),
    c_bessel(d, s)  = 2^{2s} Gamma((d-1)/2 + s) / Gamma((d-1)/2 - s),
    D   = 2^{(d-1)/2 - s} b1 / c_frac(d-1, s),
    D0  = 2^{d-1} D,
    D1  = D c_bessel + 2 h_l1,

where h_l1 = int_{S^{d-1}} h(theta.theta') dtheta' is the total mass of the
remainder.  D0 and D1 are exactly the constants appearing in the energy
inequality: d/dt (1/2)||u||^2 + D0 ||u||^2_{H^s} <= D1 ||u||^2 with equality
when h == 0.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ParameterOutOfRange, SingularArgument
from .geom import check_dimension

#: kernel evaluation rejected for z >= 1 - SINGULAR_TOL
SINGULAR_TOL = 1.0e-14

#: adaptive-quadrature tolerance for remainder mass h_l1
H_L1_TOL = 1.0e-10


def check_order(d, s):
    """Validate the singularity order s in (0, min(1, (d-1)/2))."""
    check_dimension(d)
    s_max = min(1.0, (d - 1) / 2.0)
    if not (0.0 < s < s_max):
        raise ParameterOutOfRange(f"need 0 < s < {s_max} for d = {d}, got s = {s}")
    return float(s)


def frac_constant(n, s):
    """
    Normalization c_{n,s} of the fractional Laplacian on R^n,

        c_{n,s} = 4^s Gamma(n/2 + s) / (pi^{n/2} |Gamma(-s)|).

    Evaluated through |Gamma(-s)| = Gamma(1 - s)/s, which is stable on s in (0, 1).
    """
    if n < 1:
        raise ParameterOutOfRange(f"need n >= 1, got {n}")
    if not (0.0 < s < 1.0):
        raise ParameterOutOfRange(f"need 0 < s < 1, got s = {s}")
    return (
        4.0**s * math.gamma(n / 2.0 + s) * s
        / (np.pi ** (n / 2.0) * math.gamma(1.0 - s))
    )


def bessel_constant(d, s):
    """
    The weight constant c_bessel = 2^{2s} Gamma((d-1)/2 + s) / Gamma((d-1)/2 - s):
    the fractional Laplacian of the profile <v>^{-(d-1-2s)} equals
    c_bessel <v>^{-(d-1+2s)} on R^{d-1}.
    """
    check_dimension(d)
    if not (0.0 < s < (d - 1) / 2.0):
        raise ParameterOutOfRange(f"need 0 < s < {(d - 1) / 2.0} for d = {d}, got s = {s}")
    half = (d - 1) / 2.0
    return 4.0**s * math.gamma(half + s) / math.gamma(half - s)


def conformal_eigenvalue(d, s, l):
    """
    Eigenvalue mu_l of the conformal order-2s operator on S^{d-1},

        mu_l = 2^{2s} Gamma(l + (d-1)/2 + s) / Gamma(l + (d-1)/2 - s),

    with mu_0 = c_bessel(d, s).  The Funk-Hecke eigenvalues of the singular
    part of the limiting kernel are lambda_l = D (c_bessel - mu_l); this closed
    form is the independent check for the quadrature route.

    l is one degree or an array of them.  The Gamma ratio is built by its
    recurrence, mu_{j+1} = mu_j (j + (d-1)/2 + s) / (j + (d-1)/2 - s), which
    stays finite where Gamma itself overflows (l > 170).
    """
    check_order(d, s)
    ell = np.asarray(l)
    if ell.size and not (np.all(ell >= 0) and np.all(ell == np.floor(ell))):
        raise ParameterOutOfRange(f"need integer degrees l >= 0, got {l}")
    ell = ell.astype(np.intp)
    half = (d - 1) / 2.0
    j = np.arange(ell.max(initial=0))
    ratios = np.cumprod((j + half + s) / (j + half - s))
    return bessel_constant(d, s) * np.concatenate(([1.0], ratios))[ell]


def hg_limit_b1(d, s):
    """Strength b1 = 2^{1 - alpha} of the g -> 1 limit of the Henyey-Greenstein family."""
    check_order(d, s)
    return 2.0 ** (1.0 - (d - 1) / 2.0 - s)


def _remainder_mass(d, h):
    """h_l1 = |S^{d-2}| int_{-1}^{1} h(t) (1 - t^2)^{(d-3)/2} dt by adaptive quadrature."""
    if h is None:
        return 0.0
    # imported here, as in fracop.bessel_probe: only remainder kernels need it
    from scipy import integrate

    if d == 2:
        # weight (1-t^2)^{-1/2} handled by the algebraic-weight rule
        val, err = integrate.quad(
            h, -1.0, 1.0, weight="alg", wvar=(-0.5, -0.5), epsabs=H_L1_TOL, epsrel=H_L1_TOL
        )
        ring = 2.0
    else:
        val, err = integrate.quad(h, -1.0, 1.0, epsabs=H_L1_TOL, epsrel=H_L1_TOL)
        ring = 2.0 * np.pi
    if err > 100 * H_L1_TOL * max(1.0, abs(val)):
        raise ParameterOutOfRange(f"remainder mass quadrature error {err:.2e} too large")
    return ring * val


@dataclass(frozen=True)
class KernelSpec:
    """
    A limiting scattering kernel b1 (1-z)^{-alpha} + h(z).

    Attributes
    ----------
    d : int
        Ambient dimension (sphere S^{d-1}), 2 or 3.
    s : float
        Fractional order, 0 < s < min(1, (d-1)/2).
    b1 : float
        Strength of the singular part, >= 0 (a zero value leaves only the
        integrable remainder; derived constants then require b1 > 0).
    h : callable or None
        Integrable remainder, pointwise >= 0 on [-1, 1].  None means h == 0.
        Called with arrays of z (and with floats by the h_l1 quadrature); it
        returns values of z's shape, or one scalar for a constant remainder.
    h_l1 : float
        Total remainder mass over the sphere (computed, do not pass).
    """

    d: int
    s: float
    b1: float
    h: Optional[Callable] = None
    h_l1: float = field(init=False, default=0.0)

    def __post_init__(self):
        check_order(self.d, self.s)
        if not (np.isfinite(self.b1) and self.b1 >= 0.0):
            raise ParameterOutOfRange(f"need finite b1 >= 0, got {self.b1}")
        if self.h is not None:
            if np.any(self.remainder(np.linspace(-1.0, 1.0, 257)) < 0.0):
                raise ParameterOutOfRange("remainder h must be nonnegative on [-1, 1]")
        object.__setattr__(self, "h_l1", _remainder_mass(self.d, self.h))
        if not np.isfinite(self.h_l1):
            raise ParameterOutOfRange(f"need a finite remainder mass, got {self.h_l1}")

    @property
    def base(self):
        """The limiting kernel itself, as `HGSpec.base` is for an approximant."""
        return self

    @property
    def alpha(self):
        """Singularity exponent alpha = (d-1)/2 + s."""
        return (self.d - 1) / 2.0 + self.s

    def remainder(self, z):
        """h(z) in one call on the array, broadcast to z's shape (zero if h is None)."""
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        if self.h is not None:
            out[...] = self.h(z)
        return out


@dataclass(frozen=True)
class HGSpec:
    """Henyey-Greenstein approximant: base kernel parameters plus anisotropy g in (0, 1)."""

    base: KernelSpec
    g: float

    def __post_init__(self):
        if not (0.0 < self.g < 1.0):
            raise ParameterOutOfRange(f"need 0 < g < 1, got g = {self.g}")


@dataclass(frozen=True)
class Constants:
    """Derived constants of a kernel (see module docstring)."""

    c_frac: float
    c_bessel: float
    D: float
    D0: float
    D1: float


def limiting_kernel(spec, z):
    """
    Evaluate b(z) = b1 (1 - z)^{-alpha} + h(z) elementwise.

    Raises SingularArgument if any z >= 1 - 1e-14 (the kernel is not defined
    there) and ParameterOutOfRange below z = -1.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < -1.0 - 1.0e-12):
        raise ParameterOutOfRange("kernel argument below -1")
    if np.any(z >= 1.0 - SINGULAR_TOL):
        raise SingularArgument("limiting kernel evaluated at its forward singularity")
    return spec.b1 * (1.0 - z) ** (-spec.alpha) + spec.remainder(z)


def hg_rescaled(hg, z):
    """
    Evaluate the rescaled Henyey-Greenstein kernel

        b^g(z) = (1 + g) / ((1 - g)^2 + 2 g (1 - z))^alpha + h(z),

    bounded on all of [-1, 1] for g < 1.
    """
    z = np.asarray(z, dtype=float)
    if np.any(z < -1.0 - 1.0e-12) or np.any(z > 1.0 + 1.0e-12):
        raise ParameterOutOfRange("kernel argument outside [-1, 1]")
    base, g = hg.base, hg.g
    den = (1.0 - g) ** 2 + 2.0 * g * (1.0 - z)
    return (1.0 + g) * den ** (-base.alpha) + base.remainder(z)


def constants(spec):
    """Assemble the Constants record of a kernel (all strictly positive, so b1 > 0 here)."""
    if not spec.b1 > 0.0:
        raise ParameterOutOfRange("derived constants need a strictly positive b1")
    c_f = frac_constant(spec.d - 1, spec.s)
    c_b = bessel_constant(spec.d, spec.s)
    D = 2.0 ** ((spec.d - 1) / 2.0 - spec.s) * spec.b1 / c_f
    D0 = 2.0 ** (spec.d - 1) * D
    D1 = D * c_b + 2.0 * spec.h_l1
    if not np.all(np.isfinite([D, D0, D1])):
        raise ParameterOutOfRange(f"b1 = {spec.b1} overflows the constants D, D0, D1")
    return Constants(c_frac=c_f, c_bessel=c_b, D=D, D0=D0, D1=D1)


def energy_constants(kernel):
    """(D0, D1, b1 > 0) of a kernel or its approximant's base, degenerating
    cleanly to (0, 2 h_l1, False) when b1 = 0."""
    base = kernel.base
    if base.b1 > 0.0:
        cst = constants(base)
        return cst.D0, cst.D1, True
    return 0.0, 2.0 * base.h_l1, False


def parse_remainder(text):
    """
    Parse a remainder description used in config files.

    Accepted forms: ``none``, ``const:<c>`` for a constant c >= 0, and
    ``poly:<c0>,<c1>,...`` for a polynomial in z (validated nonnegative on a
    sample of [-1, 1] by KernelSpec).  Anything else, including a number
    that does not parse or is not finite, raises ParameterOutOfRange.
    """
    text = text.strip()
    if text == "none" or text == "":
        return None
    kind, _, args = text.partition(":")
    if kind not in ("const", "poly"):
        raise ParameterOutOfRange(f"unrecognised remainder spec {text!r}")
    try:
        coeffs = [float(p) for p in args.split(",")]
    except ValueError as exc:
        raise ParameterOutOfRange(f"bad number in remainder spec {text!r}") from exc
    if not np.all(np.isfinite(coeffs)):
        raise ParameterOutOfRange(f"non-finite number in remainder spec {text!r}")
    if kind == "const":
        if len(coeffs) != 1 or coeffs[0] < 0.0:
            raise ParameterOutOfRange(
                f"constant remainder must be one number >= 0, got {args!r}"
            )
        c = coeffs[0]
        return lambda z, c=c: c
    return np.polynomial.Polynomial(coeffs)
