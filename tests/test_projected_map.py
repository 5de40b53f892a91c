"""
The projected-plane substep as one precomputed map.

An engine is built for one dt.  RK4 in dt*A, the two-thirds plane filter and
the mass repair are linear and the same for every row, so the engine steps
every batch by v @ M, with M the identity pushed through the RK4 code once,
when the engine is built, on planes of at most MAP_MAX_NODES nodes, and
through the RK4 code itself on larger planes.
Both routes must agree to 1e-13 relative on random fields, on a d = 2 plane
and on a d = 3 32^2 plane; M must conserve the angular mass; and the
half-spectrum H^s sum must equal the complex-fftn form it replaced, which
is kept here as the oracle.  On mapped planes of at most FORM_MAX_NODES
nodes the substep's H^s trapezoid is one quadratic form built beside M; it
must equal the oracle at both ends of the step to 1e-13, and every d = 3
plane (1024 nodes or more) must keep the two FFT seminorms.  The engine's
operator is the one `apply_scatter_projected` (criteria 3 and 4) evaluates,
up to the node weight <v>^{d-1}, so the two routes cannot fork.  A run
builds its map once, and a dt over the plane's bound fails when the engine
is built, before the run's observer sees u0.
"""

import functools
from dataclasses import replace

import numpy as np
import pytest

from prte.errors import StabilityViolation
from prte.fracop import PlaneField, PlaneGrid
from prte.kernels import KernelSpec
from prte.scatter import apply_scatter_projected, sphere_quadrature
from prte.solver import (
    PhaseField,
    ProjectedAngularGrid,
    SolverConfig,
    SpatialGrid,
    _engine_for,
    _ProjectedEngine,
    energy_functionals,
    make_initial,
    run,
)

REL_TOL = 1e-13

#: kernel, plane and a dt about half the plane's dt bound (1.01e-2 at d = 2,
#: 4.09e-4 at d = 3)
CASES = {
    "d2": (KernelSpec(d=2, s=0.25, b1=1.0), PlaneGrid(2, 16.0, 64), 5e-3),
    "d3": (KernelSpec(d=3, s=0.5, b1=2.0**-0.5), PlaneGrid(3, 8.0, 32), 2e-4),
}


@functools.cache
def engine(name):
    """The case's engine, shared by this module's tests (building the d = 3
    map takes about half a second), and the dt it was built for."""
    spec, plane, dt = CASES[name]
    return _ProjectedEngine(spec, ProjectedAngularGrid(plane), 8, dt), dt


def rel_dev(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def scatter_rows(eng, values, row_weight):
    """Real rows stepped through the engine's one stepping entry as complex
    rows: the new rows, the substep's two integrals and ||u||^2 after it."""
    z = values.astype(complex)
    l2_int, hs_int, l2sq = eng.scatter_spectrum(z, row_weight)
    return z.real, l2_int, hs_int, l2sq


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
        out = scatter_rows(eng, values, rng.random(rows))[0]
        assert eng.M is not None, "a plane under MAP_MAX_NODES steps by its map"
        assert rel_dev(out, eng._substep(values)) <= REL_TOL


@pytest.mark.parametrize("name", CASES)
def test_plane_over_limit_takes_rk4_route(name, monkeypatch):
    """An engine whose plane exceeds MAP_MAX_NODES never builds M, and its
    RK4 route agrees with the map route of an engine under the limit."""
    small, dt = engine(name)
    n = len(small.angular.weights)
    monkeypatch.setattr(_ProjectedEngine, "MAP_MAX_NODES", n - 1)
    big = _ProjectedEngine(small.kernel, small.angular, 8, dt)
    rng = np.random.default_rng(2)
    values = rng.standard_normal((n // 4, n))
    got = scatter_rows(big, values, 1.0)[0]
    assert big.M is None, "a plane over the limit must not build the map"
    want = scatter_rows(small, values, 1.0)[0]
    assert small.M is not None
    assert rel_dev(got, want) <= REL_TOL


def oracle_hs_trapezoid(eng, values, row_weight):
    """The substep's H^s trapezoid from the oracle seminorm at both ends."""
    after = values @ eng.M
    return 0.5 * eng.dt * (
        oracle_hs_total(eng, values, row_weight) + oracle_hs_total(eng, after, row_weight)
    )


def remainder(z):
    return 0.3 * (1.0 + z) ** 2


#: d = 2 plane size on an L = n / 4 plane -> a dt about half its dt bound
#: (2.00e-2, 5.04e-3 and 1.29e-3 with the remainder kernel, a little more
#: without it)
FORM_DT = {32: 1e-2, 128: 2.5e-3, 512: 6.4e-4}


@pytest.mark.parametrize("n", [32, 128, _ProjectedEngine.FORM_MAX_NODES])
@pytest.mark.parametrize("h", [None, remainder], ids=["power-law", "remainder"])
def test_hs_form_matches_fft_trapezoid(n, h, monkeypatch):
    """A d = 2 plane under FORM_MAX_NODES builds its form with M, and the
    form's H^s integral is the FFT trapezoid; an engine whose limit
    excludes the plane takes the FFT pair and agrees."""
    spec = KernelSpec(d=2, s=0.25, b1=1.0, h=h)
    angular = ProjectedAngularGrid(PlaneGrid(2, n / 4.0, n))
    eng = _ProjectedEngine(spec, angular, 8, FORM_DT[n])
    rng = np.random.default_rng(6)
    values = rng.standard_normal((2 * n + 5, n))
    row_weight = rng.random(len(values))
    out, _, hs_int, _ = scatter_rows(eng, values, row_weight)
    assert eng.form is not None, "the form is built beside M"
    assert hs_int == pytest.approx(
        oracle_hs_trapezoid(eng, values, row_weight), rel=REL_TOL, abs=0.0
    )
    monkeypatch.setattr(_ProjectedEngine, "FORM_MAX_NODES", n - 1)
    fft = _ProjectedEngine(spec, angular, 8, FORM_DT[n])
    fft_out, _, fft_hs, _ = scatter_rows(fft, values, row_weight)
    assert fft.form is None and fft.M is not None
    assert np.array_equal(fft_out, out), "the form route must not move the step"
    assert hs_int == pytest.approx(fft_hs, rel=REL_TOL, abs=0.0)


def test_d3_plane_keeps_fft_seminorms():
    """A d = 3 plane (1024 nodes, over FORM_MAX_NODES) steps by its map,
    builds no form, and its H^s integral is still the oracle trapezoid."""
    eng, _ = engine("d3")
    n = len(eng.angular.weights)
    assert n > eng.FORM_MAX_NODES
    rng = np.random.default_rng(7)
    values = rng.standard_normal((9, n))
    row_weight = rng.random(9)
    hs_int = scatter_rows(eng, values, row_weight)[2]
    assert eng.M is not None and eng.form is None
    assert hs_int == pytest.approx(
        oracle_hs_trapezoid(eng, values, row_weight), rel=REL_TOL, abs=0.0
    )


@pytest.mark.parametrize("name, m", [("d2", 8), ("d3", 16)])
def test_physical_scattering_step_takes_map_route(name, m, monkeypatch):
    """A physical-space (m, ..., m, n_nodes) field, stepped as complex rows
    by an engine built for dt, steps by the map through its flattened rows
    and matches the RK4 code row by row."""
    spec, plane, dt = CASES[name]
    angular = ProjectedAngularGrid(plane)
    n = len(angular.weights)
    grid = SpatialGrid(spec.d, 8.0, m)
    rng = np.random.default_rng(3)
    u = PhaseField(grid, angular, rng.standard_normal(grid.shape + (n,)))
    cfg = SolverConfig(kernel=spec, dt=dt, t_end=dt, lmax=8, backend="projected-plane")
    built = []
    substep_map = _ProjectedEngine._substep_map

    def spy(self):
        built.append(self)
        return substep_map(self)

    monkeypatch.setattr(_ProjectedEngine, "_substep_map", spy)
    eng = _engine_for(cfg, u)
    got = scatter_rows(eng, u.values, grid.cell_volume())[0]
    assert built == [eng], "a plane under MAP_MAX_NODES steps by its map"
    flat = u.values.reshape(-1, n)
    # the RK4 oracle in blocks of rows, to keep its temporaries small
    want = np.concatenate(
        [eng._substep(flat[i : i + 512]) for i in range(0, len(flat), 512)]
    )
    assert rel_dev(got.reshape(-1, n), want) <= REL_TOL


@pytest.mark.parametrize("name", CASES)
def test_map_conserves_mass(name):
    eng, _ = engine(name)
    w = eng.angular.weights
    assert np.max(np.abs(eng.M @ w - w)) <= 1e-14 * np.max(w)


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
    spec, plane, _ = CASES[name]
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((4, len(eng.angular.weights)))
    got = eng.apply(rows)
    weight = plane.bracket() ** plane.ndim
    for row, out in zip(rows, got):
        field = PlaneField(plane, row.reshape(plane.shape))
        want = apply_scatter_projected(field, spec).values * weight
        assert rel_dev(out, want.ravel()) <= REL_TOL


def test_run_builds_map_and_form_once(monkeypatch):
    """A run's engine is built for the run's dt: a march of several steps
    builds M and the H^s form once, with the engine, and never again."""
    spec, plane, dt = CASES["d2"]
    built = []
    for name in ("_substep_map", "_hs_form"):
        method = getattr(_ProjectedEngine, name)

        def spy(self, *args, _name=name, _method=method):
            built.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(_ProjectedEngine, name, spy)
    grid = SpatialGrid(2, 8.0, 8)
    u0 = make_initial("gaussian-beam", grid, ProjectedAngularGrid(plane), sigma=1.0)
    cfg = SolverConfig(
        kernel=spec, dt=dt, t_end=6 * dt, lmax=8, backend="projected-plane",
        diagnostics_every=2,
    )
    _, records = run(cfg, u0)
    assert len(records) == 4
    assert built == ["_substep_map", "_hs_form"]


@pytest.mark.parametrize("name", CASES)
def test_energy_functionals_builds_no_substep(name, monkeypatch):
    """`energy_functionals` reads only the functionals, so it builds neither
    M nor the form, yet its values are bit for bit those of `run`'s
    `functionals` on the same field."""
    spec, plane, dt = CASES[name]
    grid = SpatialGrid(plane.d, 8.0, 4)
    u = make_initial("gaussian-beam", grid, ProjectedAngularGrid(plane), sigma=1.0)
    cfg = SolverConfig(
        kernel=spec, dt=dt, t_end=dt, lmax=8, backend="projected-plane"
    )
    seen = []
    run(cfg, u, lambda v, dl2, dhs, functionals: seen.append(functionals(u.values)))

    def refuse(self, *args):
        raise AssertionError("energy_functionals built a substep map")

    monkeypatch.setattr(_ProjectedEngine, "_substep_map", refuse)
    monkeypatch.setattr(_ProjectedEngine, "_hs_form", refuse)
    got = energy_functionals(u, cfg)
    assert got == seen[0]
    # over the plane's dt bound too: no substep, so no bound to check
    assert energy_functionals(u, replace(cfg, dt=1.0, t_end=1.0)) == got


def test_dt_over_bound_fails_before_observe():
    """The dt bound is checked when the engine is built, so a run whose dt
    exceeds it fails before its observer sees u0."""
    spec, plane, dt = CASES["d2"]
    grid = SpatialGrid(2, 8.0, 8)
    u0 = make_initial("gaussian-beam", grid, ProjectedAngularGrid(plane), sigma=1.0)
    # four times the case's dt: twice the plane's bound
    cfg = SolverConfig(
        kernel=spec, dt=4 * dt, t_end=8 * dt, lmax=8, backend="projected-plane"
    )
    seen = []
    with pytest.raises(StabilityViolation, match="exceeds projected-backend bound"):
        run(cfg, u0, lambda u, dl2, dhs, functionals: seen.append(u.time))
    assert seen == []


@pytest.mark.parametrize("lmax", [1, 8, 500])
def test_d2_spectral_lmax_is_half_the_angles(lmax):
    """The d = 2 sphere-spectral engine is diagonal on every resolvable
    circular bin, so its lmax is angles // 2 whatever the config says."""
    angular = sphere_quadrature(2, 32)
    u = PhaseField(SpatialGrid(2, 8.0, 4), angular, np.ones((4, 4, 32)))
    spec = KernelSpec(d=2, s=0.25, b1=1.0)
    cfg = SolverConfig(kernel=spec, dt=0.05, t_end=0.05, lmax=lmax)
    eng = _engine_for(cfg, u)
    assert eng.lmax == 16
    assert len(eng.decay) == len(eng.factor) == 17
