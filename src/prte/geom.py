"""
Stereographic geometry between the unit sphere S^{d-1} and the tangent plane R^{d-1}.

The sphere is projected from its north pole e_d, so the south pole maps to the
origin of the plane.  Throughout, ``<v> = sqrt(1 + |v|^2)`` denotes the bracket
of a plane point and the pushforward of the surface measure is

    dtheta = 2^{d-1} <v>^{-2(d-1)} dv.

Directions are numpy arrays with the sphere coordinate on the last axis; plane
points keep d-1 components on the last axis (so for d = 2 a plane point is a
length-1 vector, not a bare scalar).  All maps are vectorized over leading axes.
"""

import numpy as np

from .errors import NorthPoleSingularity, ParameterOutOfRange

#: directions must satisfy | |theta| - 1 | <= UNIT_TOL
UNIT_TOL = 1.0e-12

#: reject projection when |1 - theta_d| <= POLE_TOL
POLE_TOL = 1.0e-12


def check_dimension(d):
    """Validate the ambient dimension (sphere S^{d-1} with d in {2, 3})."""
    if d not in (2, 3):
        raise ParameterOutOfRange(f"dimension must be 2 or 3, got {d!r}")
    return d


def check_direction(theta, d):
    """Validate an array of directions: shape (..., d) and unit length to UNIT_TOL."""
    theta = np.asarray(theta, dtype=float)
    check_dimension(d)
    if theta.shape[-1] != d:
        raise ParameterOutOfRange(
            f"direction arrays need {d} components on the last axis, got shape {theta.shape}"
        )
    err = np.abs(np.sqrt(np.sum(theta * theta, axis=-1)) - 1.0)
    if np.any(err > UNIT_TOL):
        raise ParameterOutOfRange(
            f"direction not on the unit sphere: max | |theta|-1 | = {err.max():.3e}"
        )
    return theta


def direction_cosines(nodes):
    """theta_i . theta_j of every pair of unit directions, clipped to [-1, 1]."""
    return np.clip(nodes @ nodes.T, -1.0, 1.0)


def bracket(v):
    """<v> = sqrt(1 + |v|^2) for plane points with components on the last axis."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(1.0 + np.sum(v * v, axis=-1))


def project(theta, d):
    """
    Stereographic projection S(theta) = theta' / (1 - theta_d) from the north pole.

    Parameters
    ----------
    theta : array_like, shape (..., d)
        Unit directions.  Points with |1 - theta_d| <= POLE_TOL are rejected.
    d : int
        Ambient dimension, 2 or 3.

    Returns
    -------
    ndarray, shape (..., d-1)
        Plane coordinates.
    """
    theta = check_direction(theta, d)
    gap = 1.0 - theta[..., -1]
    if np.any(np.abs(gap) <= POLE_TOL):
        raise NorthPoleSingularity("direction too close to the projection pole e_d")
    return theta[..., :-1] / gap[..., None]


def unproject(v, d):
    """
    Inverse stereographic map J(v) onto S^{d-1}.

    J_i = 2 v_i / <v>^2 for i < d and J_d = (|v|^2 - 1) / <v>^2.  The origin
    maps to the south pole; the north pole is not attained.
    """
    v = np.asarray(v, dtype=float)
    check_dimension(d)
    if v.shape[-1] != d - 1:
        raise ParameterOutOfRange(
            f"plane points need {d - 1} components on the last axis, got shape {v.shape}"
        )
    br2 = 1.0 + np.sum(v * v, axis=-1)
    theta = np.empty(v.shape[:-1] + (d,))
    theta[..., :-1] = 2.0 * v / br2[..., None]
    theta[..., -1] = (br2 - 2.0) / br2
    return theta


def chord_gap(v, vp):
    """
    The chord gap 1 - J(v).J(v') expressed in plane coordinates:

        1 - theta.theta' = 2 |v - v'|^2 / (<v>^2 <v'>^2).

    Broadcasts over leading axes.
    """
    v = np.asarray(v, dtype=float)
    vp = np.asarray(vp, dtype=float)
    diff = v - vp
    return 2.0 * np.sum(diff * diff, axis=-1) / (bracket(v) ** 2 * bracket(vp) ** 2)


def jacobian_to_sphere(v, d):
    """
    Density of the sphere measure in plane coordinates: dtheta/dv = 2^{d-1} <v>^{-2(d-1)}.

    Integrating this over R^{d-1} returns the full surface measure |S^{d-1}|.
    """
    check_dimension(d)
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != d - 1:
        raise ParameterOutOfRange(
            f"plane points need {d - 1} components on the last axis, got shape {v.shape}"
        )
    return 2.0 ** (d - 1) * bracket(v) ** (-2 * (d - 1))


def sphere_area(d):
    """Surface measure of S^{d-1}: 2*pi for d = 2, 4*pi for d = 3."""
    check_dimension(d)
    return 2.0 * np.pi if d == 2 else 4.0 * np.pi
