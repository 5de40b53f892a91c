"""
Exact discrete symmetries of the marcher.

The Strang scheme commutes with every map that carries the discrete phase
space onto itself and leaves the kernel alone: cyclic translation by whole
cells, scaling, superposition, and, where the angular nodes allow it, quarter
turns of the spatial grid with the nodes turned alongside.  Mass, L2 and the
energy residual cannot see a permuted or mirrored streaming direction (it is
still unitary and mass-exact); these checks can.

Each check marches `run` on a tiny grid from data that has none of the
tested symmetries of its own (two off-centre, anisotropic bumps carrying
differently tilted beams) and compares final fields to 1e-12 relative.

The data is smooth on purpose: a quarter turn commutes with the scheme only
away from the doubly-Nyquist bin, where the streaming fold is
cos((theta_x + theta_y) k_N t) and a quarter turn makes it
cos((theta_x - theta_y) k_N t).  Translation, scaling and superposition hold
for any data.

Rotations per engine:

- d=2 sphere-spectral: the quarter turn, with the circle nodes rolled by
  angles/4.
- d=3 sphere-spectral: the quarter turn about z, with the azimuth rolled by
  a quarter in every polar ring.
- d=2 projected-plane: none.  Its nodes are the stereographic lattice
  [-L, L), which has a node at -L and none at +L, so no mirror of the
  circle maps the node set onto itself, and the lattice is not uniform in
  angle, so no quarter turn does either.
- d=3 projected-plane: none.  A quarter turn about z turns the plane
  lattice [-L, L)^2 too, and maps its row of nodes at -L to +L, where it
  has none.
"""

import numpy as np
import pytest

from prte.fracop import PlaneGrid
from prte.kernels import KernelSpec
from prte.scatter import sphere_quadrature
from prte.solver import (
    PhaseField,
    ProjectedAngularGrid,
    SolverConfig,
    SpatialGrid,
    run,
)

REL_TOL = 1e-12

SPEC2 = KernelSpec(d=2, s=0.25, b1=1.0)
SPEC3 = KernelSpec(d=3, s=0.5, b1=2.0**-0.5)


def _case(name):
    """(config, spatial grid, angular nodes) of one engine on a tiny grid."""
    if name == "d2-spectral":
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=1.0, lmax=8, snapshot_every=20)
        return cfg, SpatialGrid(2, 8.0, 16), sphere_quadrature(2, 32)
    if name == "d3-spectral":
        cfg = SolverConfig(kernel=SPEC3, dt=0.05, t_end=0.15, lmax=3, snapshot_every=3)
        return cfg, SpatialGrid(3, 8.0, 16), sphere_quadrature(3, 4)
    if name == "d3-projected":
        # 3 steps just under the 32^2 plane's bound of 4.09e-4
        cfg = SolverConfig(
            kernel=SPEC3, dt=4e-4, t_end=1.2e-3, lmax=3,
            backend="projected-plane", snapshot_every=3,
        )
        return cfg, SpatialGrid(3, 8.0, 8), ProjectedAngularGrid(PlaneGrid(3, 8.0, 32))
    cfg = SolverConfig(
        kernel=SPEC2, dt=0.005, t_end=0.05, lmax=8,
        backend="projected-plane", snapshot_every=10,
    )
    return cfg, SpatialGrid(2, 8.0, 16), ProjectedAngularGrid(PlaneGrid(2, 8.0, 32))


ENGINES = ("d2-spectral", "d3-spectral", "d2-projected", "d3-projected")


def _bump(grid, center, widths):
    """Periodised anisotropic Gaussian (first ring of images)."""
    out = np.ones(grid.shape)
    x = grid.axis()
    for a in range(grid.d):
        prof = sum(
            np.exp(-((x - center[a] - k * grid.X) ** 2) / (2.0 * widths[a] ** 2))
            for k in (-1.0, 0.0, 1.0)
        )
        shape = [1] * grid.d
        shape[a] = grid.m
        out = out * prof.reshape(shape)
    return out


def _beam(angular, direction, width):
    e = np.asarray(direction[: angular.nodes.shape[1]], dtype=float)
    return np.exp((angular.nodes @ (e / np.linalg.norm(e)) - 1.0) / width**2)


def lopsided_pair(grid, angular):
    """Two nonnegative fields, each an off-centre bump times a tilted beam."""
    d = grid.d
    u = _bump(grid, (2.3, 5.1, 3.7)[:d], (0.9, 1.3, 1.1)[:d])[..., None] * _beam(
        angular, (0.8, 0.5, 0.3), 0.6
    )
    v = 0.5 * _bump(grid, (5.6, 2.2, 4.9)[:d], (1.2, 0.8, 1.0)[:d])[..., None] * _beam(
        angular, (-0.3, 0.9, -0.4), 0.8
    )
    return u, v


def march(cfg, grid, angular, values):
    """Final field and per-record L2 of one run."""
    snaps, recs = run(cfg, PhaseField(grid, angular, values))
    return snaps[-1].values, np.array([r.l2 for r in recs])


def assert_close(got, want, what):
    dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert dev <= REL_TOL, f"{what} broken: {dev:.2e} relative"


@pytest.fixture(scope="module", params=ENGINES)
def engine(request):
    cfg, grid, angular = _case(request.param)
    u, v = lopsided_pair(grid, angular)
    final, l2s = march(cfg, grid, angular, u)
    return request.param, cfg, grid, angular, u, v, final, l2s


def test_translation_by_whole_cells(engine):
    _, cfg, grid, angular, u, _, final, l2s = engine
    shift = (3, -5, 2)[: grid.d]
    axes = tuple(range(grid.d))
    got, got_l2 = march(cfg, grid, angular, np.roll(u, shift, axis=axes))
    assert_close(got, np.roll(final, shift, axis=axes), "translation")
    assert_close(got_l2, l2s, "translation (L2 records)")


def test_scaling(engine):
    _, cfg, grid, angular, u, _, final, l2s = engine
    c = 3.7
    got, got_l2 = march(cfg, grid, angular, c * u)
    assert_close(got, c * final, "scaling")
    assert_close(got_l2, c * l2s, "scaling (L2 records)")


def test_superposition(engine):
    _, cfg, grid, angular, u, v, final, _ = engine
    got, _ = march(cfg, grid, angular, u + v)
    only_v, _ = march(cfg, grid, angular, v)
    assert_close(got, final + only_v, "superposition")


def _quarter_turn(values, name, angular):
    """Turn the (x, y) plane by +90 degrees, nodes and cells alike.

    np.rot90 maps cell (i, j) to old cell (j, m-1-i): new(x, y) = old(y, -x)
    about the grid's centre, a lattice symmetry of the periodic grid.  A node
    at azimuth phi takes the value of the node at phi - pi/2.
    """
    out = np.rot90(values, 1, axes=(0, 1))
    if name == "d2-spectral":
        return np.roll(out, len(angular.weights) // 4, axis=-1)
    # polar-major node order: one ring of uniform azimuths per polar node
    azimuths = int(np.count_nonzero(angular.nodes[:, 2] == angular.nodes[0, 2]))
    rings = out.reshape(out.shape[:-1] + (-1, azimuths))
    return np.roll(rings, azimuths // 4, axis=-1).reshape(out.shape)


@pytest.mark.parametrize("name", ["d2-spectral", "d3-spectral"])
def test_quarter_turn(name):
    cfg, grid, angular = _case(name)
    u, _ = lopsided_pair(grid, angular)
    final, l2s = march(cfg, grid, angular, u)
    got, got_l2 = march(cfg, grid, angular, _quarter_turn(u, name, angular))
    assert_close(got, _quarter_turn(final, name, angular), "quarter turn")
    assert_close(got_l2, l2s, "quarter turn (L2 records)")
