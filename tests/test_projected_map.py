"""
The projected-plane substep as one precomputed map per dt.

RK4 in dt*A, the two-thirds plane filter and the mass repair are linear and
the same for every row, so the engine steps every batch by v @ M, with M
the identity pushed through the RK4 code once per dt, on planes of at most
MAP_MAX_NODES nodes, and through the RK4 code itself on larger planes.
Both routes must agree to 1e-13 relative on random fields, on a d = 2 plane
and on a d = 3 32^2 plane; M must conserve the angular mass; and the
half-spectrum H^s sum must equal the complex-fftn form it replaced, which
is kept here as the oracle.  On mapped planes of at most FORM_MAX_NODES
nodes the substep's H^s trapezoid is one quadratic form built beside M; it
must equal the oracle at both ends of the step to 1e-13, and every d = 3
plane (1024 nodes or more) must keep the two FFT seminorms.  The engine's
operator is the one `apply_scatter_projected` (criteria 3 and 4) evaluates,
up to the node weight <v>^{d-1}, so the two routes cannot fork.
"""

from dataclasses import replace

import numpy as np
import pytest

from prte.fracop import PlaneField, PlaneGrid
from prte.kernels import KernelSpec
from prte.scatter import apply_scatter_projected
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
    f = values.reshape(values.shape[:-1] + eng.pshape) * eng.plane.w0
    spec = np.fft.fftn(f, axes=eng.paxes)
    npl = eng.grid.n**eng.grid.ndim
    per_x = eng.grid.cell_volume() / npl * np.sum(
        eng.plane.mult * np.abs(spec) ** 2, axis=eng.paxes
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
        out = eng.scatter_l2(values, dt, rng.random(rows))[0]
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
    got = big.scatter_l2(values, dt, 1.0)[0]
    assert big._maps == {}, "a plane over the limit must not build the map"
    want = small.scatter_l2(values, dt, 1.0)[0]
    assert dt in small._maps
    assert rel_dev(got, want) <= REL_TOL


def oracle_hs_trapezoid(eng, values, dt, row_weight):
    """The substep's H^s trapezoid from the oracle seminorm at both ends."""
    after = values @ eng.substep_map(dt)
    return 0.5 * dt * (
        oracle_hs_total(eng, values, row_weight) + oracle_hs_total(eng, after, row_weight)
    )


def remainder(z):
    return 0.3 * (1.0 + z) ** 2


@pytest.mark.parametrize("n", [32, 128, _ProjectedEngine.FORM_MAX_NODES])
@pytest.mark.parametrize("h", [None, remainder], ids=["power-law", "remainder"])
def test_hs_form_matches_fft_trapezoid(n, h):
    """A d = 2 plane under FORM_MAX_NODES builds its form with M, once per
    dt, and the form's H^s integral is the FFT trapezoid; an engine whose
    limit excludes the plane takes the FFT pair and agrees."""
    spec = KernelSpec(d=2, s=0.25, b1=1.0, h=h)
    angular = ProjectedAngularGrid(PlaneGrid(2, n / 4.0, n))
    eng = _ProjectedEngine(spec, angular, lmax=8)
    dt = 0.5 * eng.stability_bound()
    rng = np.random.default_rng(6)
    values = rng.standard_normal((2 * n + 5, n))
    row_weight = rng.random(len(values))
    out, _, hs_int, _ = eng.scatter_l2(values, dt, row_weight)
    assert list(eng._forms) == [dt], "the form is built beside M"
    assert hs_int == pytest.approx(
        oracle_hs_trapezoid(eng, values, dt, row_weight), rel=REL_TOL, abs=0.0
    )
    fft = _ProjectedEngine(spec, angular, lmax=8)
    fft.FORM_MAX_NODES = n - 1
    fft_out, _, fft_hs, _ = fft.scatter_l2(values, dt, row_weight)
    assert fft._forms == {} and dt in fft._maps
    assert np.array_equal(fft_out, out), "the form route must not move the step"
    assert hs_int == pytest.approx(fft_hs, rel=REL_TOL, abs=0.0)


def test_d3_plane_keeps_fft_seminorms():
    """A d = 3 plane (1024 nodes, over FORM_MAX_NODES) steps by its map,
    builds no form, and its H^s integral is still the oracle trapezoid."""
    eng, dt = engine("d3")
    n = len(eng.angular.weights)
    assert n > eng.FORM_MAX_NODES
    rng = np.random.default_rng(7)
    values = rng.standard_normal((9, n))
    row_weight = rng.random(9)
    hs_int = eng.scatter_l2(values, dt, row_weight)[2]
    assert dt in eng._maps and eng._forms == {}
    assert hs_int == pytest.approx(
        oracle_hs_trapezoid(eng, values, dt, row_weight), rel=REL_TOL, abs=0.0
    )


@pytest.mark.parametrize("name, m", [("d2", 8), ("d3", 16)])
def test_physical_scattering_step_takes_map_route(name, m, monkeypatch):
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
    # an engine like the one scattering_step builds for itself
    eng = _engine_for(cfg, u)
    dt = 0.5 * eng.stability_bound()
    asked = []
    substep_map = _ProjectedEngine.substep_map

    def spy(self, step_dt):
        asked.append(step_dt)
        return substep_map(self, step_dt)

    monkeypatch.setattr(_ProjectedEngine, "substep_map", spy)
    got = scattering_step(u, dt, replace(cfg, dt=dt, t_end=dt)).values
    assert asked == [dt], "a plane under MAP_MAX_NODES steps by its map"
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
        got = eng._hs_total(values, row_weight, np.empty_like(values))
        want = oracle_hs_total(eng, values, row_weight)
        assert got == pytest.approx(want, rel=REL_TOL)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.filterwarnings("ignore::prte.errors.BoundaryLeakage")
def test_apply_is_apply_scatter_projected(name):
    """Each row of the engine's batched operator is the projected form of I
    times <v>^{d-1}, which the engine's node values carry."""
    eng, _ = engine(name)
    spec, plane = CASES[name]
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((4, len(eng.angular.weights)))
    got = eng.apply(rows)
    weight = plane.bracket() ** plane.ndim
    for row, out in zip(rows, got):
        field = PlaneField(plane, row.reshape(plane.shape))
        want = apply_scatter_projected(field, spec).values * weight
        assert rel_dev(out, want.ravel()) <= REL_TOL
