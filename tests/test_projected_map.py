"""
The projected-plane substep as one precomputed map per dt.

RK4 in dt*A, the two-thirds plane filter and the mass repair are linear and
the same for every row, so the engine steps every batch by v @ M, with M
the identity pushed through the RK4 code once per dt, on planes of at most
MAP_MAX_NODES nodes, and through the RK4 code itself on larger planes.
Both routes must agree to 1e-13 relative on random fields, on a d = 2 plane
and on a d = 3 32^2 plane; M must conserve the angular mass; and the
half-spectrum H^s sum must equal the complex-fftn form it replaced, which
is kept here as the oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

from prte.fracop import PlaneGrid
from prte.kernels import KernelSpec
from prte.solver import (
    PhaseField,
    ProjectedAngularGrid,
    SolverConfig,
    SpatialGrid,
    _engine_for,
    _ProjectedEngine,
    scattering_step,
)

REL_TOL = 1e-13

CASES = {
    "d2": (KernelSpec(d=2, s=0.25, b1=1.0), PlaneGrid(2, 16.0, 64)),
    "d3": (KernelSpec(d=3, s=0.5, b1=2.0**-0.5), PlaneGrid(3, 8.0, 32)),
}


def engine(name):
    """A fresh engine (empty map cache) and a step half its dt bound."""
    spec, plane = CASES[name]
    eng = _ProjectedEngine(spec, ProjectedAngularGrid(plane), lmax=8)
    return eng, 0.5 * eng.stability_bound()


def rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def oracle_hs_total(eng, values, row_weight):
    """The full complex-fftn plane Parseval sum the engine used to take."""
    f = values.reshape(values.shape[:-1] + eng.pshape) * eng.w0
    spec = np.fft.fftn(f, axes=eng.paxes)
    npl = eng.grid.n**eng.grid.ndim
    per_x = eng.grid.cell_volume() / npl * np.sum(
        eng.mult_s * np.abs(spec) ** 2, axis=eng.paxes
    )
    return float(np.sum(np.broadcast_to(row_weight, per_x.shape) * per_x))


@pytest.mark.parametrize("name", CASES)
def test_map_route_matches_rk4(name):
    """Batches shorter and taller than M both step by the map."""
    eng, dt = engine(name)
    n = len(eng.angular.weights)
    rng = np.random.default_rng(1)
    for rows in (3, n + 7):
        values = rng.standard_normal((rows, n))
        out, _, _ = eng.scatter(values, dt, rng.random(rows))
        assert dt in eng._maps, "a plane under MAP_MAX_NODES steps by its map"
        assert rel_dev(out, eng._substep(values, dt)) <= REL_TOL


@pytest.mark.parametrize("name", CASES)
def test_plane_over_limit_takes_rk4_route(name):
    """An engine whose plane exceeds MAP_MAX_NODES never builds M, and its
    RK4 route agrees with the map route of an engine under the limit."""
    big, dt = engine(name)
    n = len(big.angular.weights)
    big.MAP_MAX_NODES = n - 1
    small, _ = engine(name)
    rng = np.random.default_rng(2)
    values = rng.standard_normal((n // 4, n))
    got, _, _ = big.scatter(values, dt, 1.0)
    assert big._maps == {}, "a plane over the limit must not build the map"
    want, _, _ = small.scatter(values, dt, 1.0)
    assert dt in small._maps
    assert rel_dev(got, want) <= REL_TOL


@pytest.mark.parametrize("name, m", [("d2", 8), ("d3", 16)])
def test_physical_scattering_step_takes_map_route(name, m):
    """A physical-space (m, ..., m, n_nodes) field steps by the map through
    its flattened rows and matches the RK4 code row by row."""
    spec, plane = CASES[name]
    angular = ProjectedAngularGrid(plane)
    n = len(angular.weights)
    grid = SpatialGrid(spec.d, 8.0, m)
    rng = np.random.default_rng(3)
    u = PhaseField(grid, angular, rng.standard_normal(grid.shape + (n,)))
    cfg = SolverConfig(
        kernel=spec, dt=1e-3, t_end=1e-3, lmax=8, backend="projected-plane"
    )
    # the engine scattering_step looks up: its key does not depend on dt
    eng = _engine_for(cfg, u)
    dt = 0.5 * eng.stability_bound()
    got = scattering_step(u, dt, replace(cfg, dt=dt, t_end=dt)).values
    assert dt in eng._maps
    flat = u.values.reshape(-1, n)
    # the RK4 oracle in blocks of rows, to keep its temporaries small
    want = np.concatenate(
        [eng._substep(flat[i : i + 512], dt) for i in range(0, len(flat), 512)]
    )
    assert rel_dev(got.reshape(-1, n), want) <= REL_TOL


@pytest.mark.parametrize("name", CASES)
def test_map_conserves_mass(name):
    eng, dt = engine(name)
    w = eng.angular.weights
    M = eng.substep_map(dt)
    assert np.max(np.abs(M @ w - w)) <= 1e-14 * np.max(w)


@pytest.mark.parametrize("name", CASES)
def test_hs_total_matches_complex_fftn(name):
    eng, _ = engine(name)
    n = len(eng.angular.weights)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((9, n))
    for row_weight in (0.37, rng.random(9)):
        got = eng._hs_total(values, row_weight)
        want = oracle_hs_total(eng, values, row_weight)
        assert got == pytest.approx(want, rel=REL_TOL)
