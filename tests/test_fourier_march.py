"""
The spatial-Fourier marcher against the physical-space marcher it replaced.

`run` keeps its state as the rfftn spectrum over the space axes and streams
by one multiplier table built per run.  The oracle here is the previous
marcher, kept as it was: every half-step takes a full fftn, multiplies by
exp(-i theta.k dt/2) built on the spot, and keeps the real part of the
ifftn; scattering acts on physical values with the cell volume as its
weight.  Both march random nonnegative data, which has energy in every bin,
the Nyquist planes and the doubly-Nyquist bins included, and they must agree
step by step to 1e-13 relative on all three engines: fields, every
diagnostics column, and the fields and step integrals `run` hands its
observer.
"""

from dataclasses import replace

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
    _engine_for,
    run,
    strang_step_energy,
    transport_step,
)

REL_TOL = 1e-13

SPEC2 = KernelSpec(d=2, s=0.25, b1=1.0)
SPEC3 = KernelSpec(d=3, s=0.5, b1=2.0**-0.5)


def oracle_transport(u, dt):
    """Free streaming in physical space: fftn, phase, ifftn, real part."""
    g = u.spatial
    axes = tuple(range(g.d))
    k = g.wavenumbers()
    theta = np.asarray(u.angular.nodes)[:, : g.d]
    ex = np.zeros(g.shape + (theta.shape[0],))
    for a in range(g.d):
        shape = [1] * (g.d + 1)
        shape[a] = g.m
        ex = ex + k.reshape(shape) * theta[:, a]
    spec = np.fft.fftn(u.values, axes=axes)
    spec *= np.exp(-1j * dt * ex)
    out = np.fft.ifftn(spec, axes=axes).real
    return PhaseField(u.spatial, u.angular, out, u.time + dt)


def oracle_step(u, dt, eng):
    """transport(dt/2), scattering(dt), transport(dt/2) on physical values."""
    half = oracle_transport(u, 0.5 * dt)
    mid, dl2, dhs, _ = eng.scatter_l2(half.values, dt, u.spatial.cell_volume())
    out = oracle_transport(PhaseField(u.spatial, u.angular, mid, half.time), 0.5 * dt)
    return out, dl2, dhs


def oracle_march(cfg, u0, n_steps):
    """Fields, (time, mass, l2, linf, hs_integral, residual) and each step's
    (int ||u||^2 dtau, int ||u||^2_Hs dtau), the initial state included."""
    eng = _engine_for(cfg, u0)
    u = u0.copy()
    fields = [u.values]
    rows = [(u.time, u.mass(), u.l2(), u.linf(), 0.0, 0.0)]
    integrals = [(0.0, 0.0)]
    hs_total = 0.0
    for _ in range(n_steps):
        l2_prev = u.l2()
        u, dl2, dhs = oracle_step(u, cfg.dt, eng)
        hs_total += dhs
        residual = 0.5 * l2_prev**2 + eng.D1 * dl2 - 0.5 * u.l2() ** 2 - eng.D0 * dhs
        fields.append(u.values)
        rows.append((u.time, u.mass(), u.l2(), u.linf(), hs_total, residual))
        integrals.append((dl2, dhs))
    return fields, np.array(rows), np.array(integrals)


def _case(name):
    """(config, steps, spatial grid, angular nodes) of one engine."""
    if name == "d2-spectral":
        cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.4, lmax=8)
        return cfg, 8, SpatialGrid(2, 8.0, 16), sphere_quadrature(2, 32)
    if name == "d3-spectral":
        cfg = SolverConfig(kernel=SPEC3, dt=0.05, t_end=0.15, lmax=5)
        return cfg, 3, SpatialGrid(3, 8.0, 8), sphere_quadrature(3, 6)
    cfg = SolverConfig(
        kernel=SPEC2, dt=0.005, t_end=0.03, lmax=8, backend="projected-plane"
    )
    return cfg, 6, SpatialGrid(2, 8.0, 16), ProjectedAngularGrid(PlaneGrid(2, 8.0, 32))


ENGINES = ("d2-spectral", "d3-spectral", "d2-projected")


def random_field(grid, angular, seed):
    rng = np.random.default_rng(seed)
    return PhaseField(grid, angular, rng.random(grid.shape + (len(angular.weights),)))


def rel_dev(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", ENGINES)
def test_run_matches_physical_oracle_every_step(name):
    cfg, n_steps, grid, angular = _case(name)
    u0 = random_field(grid, angular, seed=21)
    fields, rows, integrals = oracle_march(cfg, u0, n_steps)
    seen = []

    def observe(u, dl2, dhs, functionals):
        seen.append((u.values.copy(), dl2, dhs))

    snaps, recs = run(replace(cfg, diagnostics_every=1, snapshot_every=1), u0, observe)
    assert len(snaps) == len(recs) == len(seen) == n_steps + 1
    for step, (values, dl2, dhs) in enumerate(seen):
        dev = rel_dev(values, fields[step])
        assert dev <= REL_TOL, f"step {step}: observed field off by {dev:.2e}"
        for got, want in zip((dl2, dhs), integrals[step]):
            assert abs(got - want) <= REL_TOL * abs(want), f"step {step}: {got!r} != {want!r}"
    for step, (snap, rec) in enumerate(zip(snaps, recs)):
        dev = rel_dev(snap.values, fields[step])
        assert dev <= REL_TOL, f"step {step}: field off by {dev:.2e}"
        got = (rec.time, rec.mass, rec.l2, rec.linf, rec.hs_integral)
        for col, (a, b) in enumerate(zip(got, rows[step][:5])):
            assert abs(a - b) <= REL_TOL * abs(b), f"step {step}, column {col}: {a!r} != {b!r}"
        # the residual is a roundoff-sized difference of O(||u||^2) terms
        assert abs(rec.energy_residual - rows[step][5]) <= REL_TOL * rows[0][2] ** 2


@pytest.mark.parametrize("name", ENGINES)
def test_sparse_emits_match_oracle(name):
    """Between emits the march only multiplies by the fused table H*H."""
    cfg, n_steps, grid, angular = _case(name)
    u0 = random_field(grid, angular, seed=5)
    fields, rows, _ = oracle_march(cfg, u0, n_steps)
    every = 2 if n_steps % 2 else 3
    snaps, recs = run(replace(cfg, diagnostics_every=every, snapshot_every=every), u0)
    steps = sorted({*range(0, n_steps + 1, every), n_steps})
    assert [r.time for r in recs] == pytest.approx([rows[s][0] for s in steps], rel=1e-15)
    for snap, rec, step in zip(snaps, recs, steps):
        assert rel_dev(snap.values, fields[step]) <= REL_TOL
        assert abs(rec.l2 - rows[step][2]) <= REL_TOL * rows[step][2]
        assert abs(rec.hs_integral - rows[step][4]) <= REL_TOL * max(rows[step][4], 1e-300)


@pytest.mark.parametrize("d, m, angles", [(2, 16, 32), (3, 8, 4)])
def test_transport_step_matches_real_part_fold(d, m, angles):
    """One rfftn table step equals the full-spectrum phase plus real part,
    the doubly-Nyquist bins included."""
    grid = SpatialGrid(d, 8.0, m)
    u = random_field(grid, sphere_quadrature(d, angles), seed=3)
    got = transport_step(u, 0.37)
    want = oracle_transport(u, 0.37)
    assert rel_dev(got.values, want.values) <= 1e-14
    assert got.time == want.time


@pytest.mark.parametrize("name", ENGINES)
def test_strang_step_energy_matches_oracle(name):
    cfg, _, grid, angular = _case(name)
    u = random_field(grid, angular, seed=8)
    got, dl2, dhs = strang_step_energy(u, cfg.dt, cfg)
    want, wl2, whs = oracle_step(u, cfg.dt, _engine_for(cfg, u))
    assert rel_dev(got.values, want.values) <= REL_TOL
    assert got.time == want.time
    assert dl2 == pytest.approx(wl2, rel=REL_TOL)
    assert dhs == pytest.approx(whs, rel=REL_TOL)


def test_input_memory_order_does_not_matter():
    """rfftn of a Fortran-ordered field is not C-ordered; the march must
    still write every scattering substep back into its state."""
    cfg, n_steps, grid, angular = _case("d2-spectral")
    u0 = random_field(grid, angular, seed=13)
    cfg = replace(cfg, snapshot_every=n_steps)
    want, _ = run(cfg, u0)
    got, _ = run(cfg, PhaseField(grid, angular, np.asfortranarray(u0.values)))
    assert rel_dev(got[-1].values, want[-1].values) <= REL_TOL
