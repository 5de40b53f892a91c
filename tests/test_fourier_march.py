"""
The spatial-Fourier marcher against the physical-space marcher it replaced.

`run` keeps its state as the rfftn spectrum over the space axes and streams
by per-axis factors built per run (`solver._Stream`).  The oracle here is
the previous marcher's transport, kept as it was: every half-step takes a
full fftn, multiplies by exp(-i theta.k dt/2) built on the spot, and keeps
the real part of the ifftn.  Its scattering steps the physical values as
complex rows with zero imaginary parts through the engine's one stepping
entry, `scatter_spectrum`, with the cell volume as their weight, and keeps
the real part.  Both march random nonnegative data, which has energy in every bin,
the Nyquist planes and the doubly-Nyquist bins included, and they must agree
step by step to 1e-13 relative on all four engines: fields, every
diagnostics column, and the fields and step integrals `run` hands its
observer.
"""

import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prte import solver
from prte.errors import InvariantViolation, ParameterOutOfRange
from prte.fracop import PlaneGrid, parseval_weights
from prte.kernels import KernelSpec
from prte.scatter import (
    SphereQuadrature,
    basis_at_directions,
    funk_hecke_eigs,
    mode_degrees,
    polar_quadrature,
    sphere_quadrature,
)
from prte.solver import (
    SPHERE_BLOCK_ROWS,
    PhaseField,
    ProjectedAngularGrid,
    SolverConfig,
    SpatialGrid,
    _cpus,
    _engine_for,
    _parseval_weights,
    _Stream,
    _to_spectrum,
    energy_functionals,
    run,
    strang_step_energy,
    transport_step,
    write_diagnostics,
    write_snapshot,
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
    z = half.values.astype(complex)
    dl2, dhs, _ = eng.scatter_spectrum(z, u.spatial.cell_volume())
    mid = PhaseField(u.spatial, u.angular, z.real, half.time)
    return oracle_transport(mid, 0.5 * dt), dl2, dhs


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
    if name == "d3-projected":
        # the 32^2 plane's dt bound is 4.09e-4
        cfg = SolverConfig(
            kernel=SPEC3, dt=4e-4, t_end=1.2e-3, lmax=5, backend="projected-plane"
        )
        return cfg, 3, SpatialGrid(3, 8.0, 8), ProjectedAngularGrid(PlaneGrid(3, 8.0, 32))
    cfg = SolverConfig(
        kernel=SPEC2, dt=0.005, t_end=0.03, lmax=8, backend="projected-plane"
    )
    return cfg, 6, SpatialGrid(2, 8.0, 16), ProjectedAngularGrid(PlaneGrid(2, 8.0, 32))


ENGINES = ("d2-spectral", "d3-spectral", "d2-projected", "d3-projected")


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
    """Between emits the march only streams by the squared factors, H*H."""
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


STREAM_CASES = pytest.mark.parametrize("d, m, angular", [
    (2, 16, sphere_quadrature(2, 32)),
    (3, 8, sphere_quadrature(3, 4)),
    (2, 16, ProjectedAngularGrid(PlaneGrid(2, 8.0, 32))),
], ids=["d2", "d3", "projected"])


def whole_table(grid, theta, tau):
    """The multiplier on every rfftn bin, (bins..., nodes), as one table:
    exp(theta.k' (-i tau)) cos(theta.k'' tau), each dot product summed axis
    by axis, k' the wavevector with its Nyquist components zeroed and
    k'' = k - k'."""
    m, d = grid.m, grid.d
    k = grid.wavenumbers()
    stream = k.copy()
    stream[m // 2] = 0.0
    bins = grid.shape[:-1] + (m // 2 + 1,)

    def dot_theta(per_axis):
        out = np.zeros(bins + (theta.shape[0],))
        for a in range(d):
            shape = [1] * (d + 1)
            shape[a] = bins[a]
            out += per_axis[: bins[a]].reshape(shape) * theta[:, a]
        return out

    return np.exp(dot_theta(stream) * (-1j * tau)) * np.cos(dot_theta(k - stream) * tau)


@STREAM_CASES
def test_stream_factors_match_exp_form(d, m, angular):
    """Each axis's factor is bit for bit the complex exp of its own phase
    times the cosine of its own fold, which is 1 off the Nyquist index."""
    grid = SpatialGrid(d, 8.0, m)
    tau = 0.37
    theta = np.asarray(angular.nodes)[:, :d]
    k = grid.wavenumbers()
    stream = k.copy()
    stream[m // 2] = 0.0
    stream_by = _Stream.over(grid, angular, tau)
    assert len(stream_by.factors) == d
    for a, factor in enumerate(stream_by.factors):
        n = m // 2 + 1 if a == d - 1 else m
        want = np.exp(np.multiply.outer(stream[:n], theta[:, a]) * (-1j * tau))
        want *= np.cos(np.multiply.outer((k - stream)[:n], theta[:, a]) * tau)
        assert np.array_equal(factor, want), f"axis {a}"


@STREAM_CASES
def test_stream_exact_rows_are_the_whole_table_rows(d, m, angular):
    """The rows on two or more Nyquist planes, and only they, keep their own
    factors, bit for bit those of the whole table (both dt/2 and the
    squared factors of a whole step): 1 row at d = 2, 19 on the 8^3 grid."""
    grid = SpatialGrid(d, 8.0, m)
    tau = 0.37
    theta = np.asarray(angular.nodes)[:, :d]
    half = _Stream.over(grid, angular, tau)
    table = whole_table(grid, theta, tau).reshape(-1, theta.shape[0])
    nyq = np.indices(grid.shape[:-1] + (m // 2 + 1,)).reshape(d, -1) == m // 2
    assert np.array_equal(half.rows, np.flatnonzero(nyq.sum(axis=0) >= 2))
    assert len(half.rows) == (1 if d == 2 else 19)
    assert np.array_equal(half.exact, table[half.rows])
    assert np.array_equal(half.squared().exact, (table * table)[half.rows])


@STREAM_CASES
def test_stream_assembles_the_whole_table(d, m, angular):
    """Applied to ones, the factors give the whole table within 1e-15 on
    every bin, and their squares the table's square within 2e-15, since
    both sides of that are squares of rounded multipliers.  Applied block by
    block from any row, the bytes are those of one whole pass, in place or
    into another array."""
    grid = SpatialGrid(d, 8.0, m)
    tau = 0.37
    theta = np.asarray(angular.nodes)[:, :d]
    table = whole_table(grid, theta, tau).reshape(-1, theta.shape[0])
    half = _Stream.over(grid, angular, tau)
    for stream, want, tol in ((half, table, 1e-15), (half.squared(), table * table, 2e-15)):
        got = stream.apply(np.ones(want.shape, complex))
        assert np.max(np.abs(got - want)) <= tol
    rng = np.random.default_rng(11)
    spec = rng.standard_normal(table.shape) + 1j * rng.standard_normal(table.shape)
    whole = half.apply(spec.copy())
    assert half.apply(spec, out=np.empty_like(spec)).tobytes() == whole.tobytes()
    for block in (7, SPHERE_BLOCK_ROWS):
        rows = spec.copy()
        for start in range(0, len(rows), block):
            half.apply(rows[start : start + block], start)
        assert rows.tobytes() == whole.tobytes(), f"blocks of {block}"


@pytest.mark.parametrize("name", ENGINES)
def test_strang_step_energy_matches_oracle(name):
    cfg, _, grid, angular = _case(name)
    u = random_field(grid, angular, seed=8)
    got, dl2, dhs = strang_step_energy(u, cfg.dt, cfg)
    want, wl2, whs = oracle_step(u, cfg.dt, _engine_for(cfg, u))
    assert rel_dev(got.values, want.values) <= REL_TOL
    assert got.time == want.time
    assert dl2 == pytest.approx(wl2, rel=REL_TOL, abs=0)
    assert dhs == pytest.approx(whs, rel=REL_TOL, abs=0)


@pytest.mark.parametrize("name", ENGINES)
def test_callers_values_are_never_written(name):
    """The engines scatter in their own workspace: no one-step call and no
    run writes the caller's field, and every field a run hands its observer
    or keeps as a snapshot is its own array, which later steps leave alone."""
    cfg, n_steps, grid, angular = _case(name)
    u = random_field(grid, angular, seed=17)
    before = u.values.copy()
    strang_step_energy(u, cfg.dt, cfg)
    energy_functionals(u, cfg)
    seen = []

    def observe(v, dl2, dhs, functionals):
        functionals(v.values)
        seen.append((v, v.values.copy()))

    run(replace(cfg, snapshot_every=2, diagnostics_every=3), u, observe)
    run(cfg, u)
    assert u.values.tobytes() == before.tobytes()
    assert len(seen) == n_steps + 1
    for step, (v, copy) in enumerate(seen):
        assert v.values.tobytes() == copy.tobytes(), f"observed field {step} changed"


#: cells per axis for the allocation test: batches of 2.6-5.2 MB, so that
#: the fixed 8192-element buffer a broadcasting ufunc takes stays far below
#: an eighth of one
ALLOC_CELLS = {"d2-spectral": 128, "d3-spectral": 16, "d2-projected": 128, "d3-projected": 8}


@pytest.mark.parametrize("name", ENGINES)
def test_scatter_substep_allocates_no_batch(name):
    """After one warm-up substep, the next allocates less than an eighth of
    one batch of rows: every batch-sized temporary lives in the engine's
    workspace (numpy reports its data buffers to tracemalloc)."""
    cfg, _, grid, angular = _case(name)
    grid = SpatialGrid(grid.d, grid.X, ALLOC_CELLS[name])
    u = random_field(grid, angular, seed=19)
    eng = _engine_for(cfg, u)
    spec = _to_spectrum(u)
    row_weight = _parseval_weights(grid)
    eng.scatter_spectrum(spec, row_weight)
    batch_bytes = 2 * (spec.size // spec.shape[-1]) * spec.shape[-1] * 8
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        eng.scatter_spectrum(spec, row_weight)
        extra = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert extra < batch_bytes / 8, f"{extra} bytes against a {batch_bytes}-byte batch"


@pytest.mark.parametrize("name", ENGINES)
def test_run_holds_no_spectrum_sized_multiplier(name, monkeypatch):
    """A whole run with no observer and no snapshots peaks below the
    spectrum, the engine's workspace (the batch, the field of an emit and
    the engine's other slots) and one more spectrum.  A multiplier table the
    size of the spectrum would exceed that by itself: the streaming factors
    take 2/m of the spectrum or less, and everything else of the run is
    smaller.  The engine is built first, so that its own tables (M, the
    form) are not counted."""
    cfg, _, grid, angular = _case(name)
    grid = SpatialGrid(grid.d, grid.X, ALLOC_CELLS[name])
    u0 = random_field(grid, angular, seed=41)
    eng = _engine_for(cfg, u0)
    monkeypatch.setattr(solver, "_engine_for", lambda cfg, u, stepping=True: eng)
    spec_bytes = 16 * u0.values.size // grid.m * (grid.m // 2 + 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(cfg, u0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    workspace = sum(buf.nbytes for slots in eng._slot_sets for buf in slots.values())
    extra = peak - spec_bytes - workspace
    assert extra < spec_bytes, f"{extra} bytes besides a {spec_bytes}-byte spectrum"


@pytest.mark.parametrize("name", ENGINES)
def test_to_spectrum_allocates_only_its_result(name):
    """rfftn's passes after the first run in place in the result, so taking
    the spectrum peaks at the result's bytes, not twice them."""
    cfg, _, grid, angular = _case(name)
    grid = SpatialGrid(grid.d, grid.X, ALLOC_CELLS[name])
    u = random_field(grid, angular, seed=23)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        spec = _to_spectrum(u)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * spec.nbytes, f"{peak} bytes for a {spec.nbytes}-byte spectrum"
    assert spec.tobytes() == np.fft.rfftn(u.values, axes=tuple(range(grid.d))).tobytes()


def test_input_memory_order_does_not_matter():
    """rfftn of a Fortran-ordered field is not C-ordered; the march must
    still write every scattering substep back into its state."""
    cfg, n_steps, grid, angular = _case("d2-spectral")
    u0 = random_field(grid, angular, seed=13)
    cfg = replace(cfg, snapshot_every=n_steps)
    want, _ = run(cfg, u0)
    got, _ = run(cfg, PhaseField(grid, angular, np.asfortranarray(u0.values)))
    assert rel_dev(got[-1].values, want[-1].values) <= REL_TOL


# ---------------------------------------------------------------------------
# the d = 2 complex substep against the dense real map

#: with and without a Nyquist bin
D2_ANGLES = (32, 31)


def _d2_engine(angles):
    grid = SpatialGrid(2, 8.0, 4)
    angular = sphere_quadrature(2, angles)
    u = PhaseField(grid, angular, np.ones(grid.shape + (angles,)))
    cfg = SolverConfig(kernel=SPEC2, dt=0.05, t_end=0.05, lmax=8)
    return _engine_for(cfg, u)


def dense_map_d2(eng):
    """
    I + proj diag(expm1(lambda dt)) basis^T on the engine's circle rule, as
    the row map u -> u @ map.  proj is the quadrature weights times the
    basis over each column's discrete Gram entry: with even angles the
    Nyquist sine is +-1 at the midpoint nodes (Gram entry 2) and the Nyquist
    cosine is 0 there, so it drops out; every other entry is 1.
    """
    w = eng.angular.weights
    basis = basis_at_directions(2, eng.angular.nodes, eng.lmax)
    gram = np.einsum("j,jc,jc->c", w, basis, basis)
    keep = gram > 0.5
    basis = basis[:, keep]
    proj = w[:, None] * basis / gram[keep]
    lam = funk_hecke_eigs(eng.kernel, eng.lmax).lambdas
    grow = np.expm1(lam[mode_degrees(2, eng.lmax)[keep]] * eng.dt)
    return np.eye(len(w)) + (proj * grow) @ basis.T


def rfft_masses(rows, row_weight):
    """Per-degree masses of real (R, n) rows by the rfft route: Parseval
    weights of the rfft bins times the row-weighted bin powers."""
    n = rows.shape[-1]
    power = np.abs(np.fft.rfft(rows)) ** 2
    power = np.broadcast_to(row_weight, power.shape[:1]) @ power
    return parseval_weights(n, 1, 2.0 * np.pi / n) * power


def norm_sq(rows, row_weight, angular):
    """sum_r row_weight_r sum_j w_j |rows[r, j]|^2."""
    per_row = np.abs(rows) ** 2 @ angular.weights
    return float(np.broadcast_to(row_weight, per_row.shape) @ per_row)


def assert_close(got, want):
    assert abs(got - want) <= REL_TOL * abs(want), f"{got!r} != {want!r}"


def _row_weights(kind, rows, rng):
    return 0.37 if kind == "scalar" else rng.random(rows) + 0.5


@pytest.mark.parametrize("angles", D2_ANGLES)
def test_d2_scatter_spectrum_matches_dense_map(angles):
    """The spectrum is stepped in place: each complex row's real and
    imaginary parts by the real map, with the row's Parseval weight."""
    eng = _d2_engine(angles)
    rng = np.random.default_rng(31)
    shape = (5, 3, angles)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    weight = rng.random(15) + 0.5
    flat = spec.reshape(-1, angles)
    big = dense_map_d2(eng)
    want = flat.real @ big + 1j * (flat.imag @ big)
    masses = rfft_masses(flat.real, weight) + rfft_masses(flat.imag, weight)
    l2_int, hs_int, l2sq = eng.scatter_spectrum(spec, weight)
    assert rel_dev(spec.reshape(-1, angles), want) <= REL_TOL
    assert_close(l2_int, float(np.sum(masses * eng.decay)))
    assert_close(hs_int, float(np.sum(eng.sigma * masses * eng.decay)))
    assert_close(l2sq, norm_sq(want, weight, eng.angular))


@pytest.mark.parametrize("angles", D2_ANGLES)
@pytest.mark.parametrize("rows", [6, 7])
@pytest.mark.parametrize("weights", ["scalar", "per-row"])
def test_d2_functionals_and_masses_match_rfft_route(angles, rows, weights):
    """Physical rows, cast to complex rows in the batch and fft'd there, as
    `functionals` takes them."""
    eng = _d2_engine(angles)
    rng = np.random.default_rng(40 + rows)
    values = rng.random((rows, angles))
    weight = _row_weights(weights, rows, rng)
    masses = rfft_masses(values, weight)
    assert rel_dev(eng._bin_masses(eng._fft_rows(values), weight), masses) <= REL_TOL
    l2sq, hssq = eng.functionals(values, weight)
    assert_close(l2sq, float(masses.sum()))
    assert_close(hssq, float(np.sum(eng.sigma * masses)))
    # the masses sum to the quadrature norm of the values
    assert_close(l2sq, norm_sq(values, weight, eng.angular))


# ---------------------------------------------------------------------------
# the d = 3 per-order substep against the dense map

#: even and odd ring counts: with an odd count the equator ring is its own
#: mirror image
D3_RINGS = (6, 7)
#: more than two blocks, and not a whole number of them
D3_ROWS = 2 * SPHERE_BLOCK_ROWS + 7


def _d3_engine(rings, azimuths=None, lmax=5):
    grid = SpatialGrid(3, 8.0, 4)
    angular = polar_quadrature(rings, azimuths)
    u = PhaseField(grid, angular, np.ones(grid.shape + (len(angular.weights),)))
    cfg = SolverConfig(kernel=SPEC3, dt=0.05, t_end=0.05, lmax=lmax)
    return _engine_for(cfg, u)


def _d3_projection(eng):
    """The basis on the engine's whole rule and proj = weights * basis."""
    basis = basis_at_directions(3, eng.angular.nodes, eng.lmax)
    return basis, eng.angular.weights[:, None] * basis


def dense_map_d3(eng):
    """I + proj diag(expm1(lambda dt)) basis^T as the row map u -> u @ map."""
    basis, proj = _d3_projection(eng)
    lam = funk_hecke_eigs(eng.kernel, eng.lmax).lambdas
    grow = np.expm1(lam[mode_degrees(3, eng.lmax)] * eng.dt)
    return np.eye(len(basis)) + (proj * grow) @ basis.T


def dense_masses_d3(eng, rows, row_weight):
    """Per-degree masses of real (R, n) rows by the dense projection, and
    the rest of their quadrature norm (the beyond-band remainder)."""
    coef = rows @ _d3_projection(eng)[1]
    per_mode = np.broadcast_to(row_weight, coef.shape[:1]) @ coef**2
    masses = np.bincount(mode_degrees(3, eng.lmax), per_mode, minlength=eng.lmax + 1)
    return masses, norm_sq(rows, row_weight, eng.angular) - float(masses.sum())


def assert_step_integrals(eng, l2_int, hs_int, masses, rest):
    assert_close(l2_int, float(np.sum(masses * eng.decay)) + rest * eng.dt)
    assert_close(hs_int, float(np.sum(eng.sigma * masses * eng.decay)))


@pytest.mark.parametrize("rings", D3_RINGS)
def test_d3_harmonics_have_exact_parity(rings):
    """On polar_quadrature's rings, mirrored about the equator, each real
    harmonic's south values are exactly (-1)^(l + m) times its north values,
    and the odd ones vanish on an equator ring."""
    angular = polar_quadrature(rings)
    lmax = angular.lmax_cap()
    basis = basis_at_directions(3, angular.nodes, lmax).reshape(rings, -1, (lmax + 1) ** 2)
    degrees = mode_degrees(3, lmax)
    order = np.abs(np.arange(len(degrees)) - degrees * (degrees + 1))
    parity = np.where((degrees + order) % 2 == 0, 1.0, -1.0)
    assert np.array_equal(basis[::-1], basis * parity)
    if rings % 2:
        assert not np.any(basis[rings // 2][:, parity < 0])


@pytest.mark.parametrize("rings", D3_RINGS)
@pytest.mark.parametrize("weights", ["scalar", "per-row"])
def test_d3_scatter_spectrum_matches_dense_map(rings, weights):
    """The spectrum is stepped in place, block by block: each complex row's
    real and imaginary parts by the dense map, with the row's weight."""
    eng = _d3_engine(rings)
    n = len(eng.angular.weights)
    rng = np.random.default_rng(60 + rings)
    spec = rng.standard_normal((D3_ROWS, n)) + 1j * rng.standard_normal((D3_ROWS, n))
    weight = _row_weights(weights, D3_ROWS, rng)
    parts = np.concatenate([spec.real, spec.imag])
    both = weight if weights == "scalar" else np.tile(weight, 2)
    masses, rest = dense_masses_d3(eng, parts, both)
    want = spec @ dense_map_d3(eng)
    l2_int, hs_int, l2sq = eng.scatter_spectrum(spec, weight)
    assert rel_dev(spec, want) <= REL_TOL
    assert_step_integrals(eng, l2_int, hs_int, masses, rest)
    assert_close(l2sq, norm_sq(want, weight, eng.angular))


@pytest.mark.parametrize("rings", D3_RINGS)
@pytest.mark.parametrize("weights", ["scalar", "per-row"])
def test_d3_functionals_match_dense_masses(rings, weights):
    """`functionals` reads real rows through the real-row branch:
    ||u||^2 is the dense masses plus the beyond-band rest, ||u||^2_Hs the
    sigma-weighted masses, and the rows are not written."""
    eng = _d3_engine(rings)
    rng = np.random.default_rng(70 + rings)
    values = rng.random((D3_ROWS, len(eng.angular.weights)))
    weight = _row_weights(weights, D3_ROWS, rng)
    masses, rest = dense_masses_d3(eng, values, weight)
    before = values.copy()
    l2sq, hssq = eng.functionals(values, weight)
    assert values.tobytes() == before.tobytes()
    assert_close(l2sq, float(masses.sum()) + rest)
    assert_close(hssq, float(np.sum(eng.sigma * masses)))


@pytest.mark.parametrize("rings", D3_RINGS)
@pytest.mark.parametrize("weights", ["scalar", "per-row"])
def test_d3_functionals_and_masses_match_dense_projection(rings, weights):
    eng = _d3_engine(rings)
    rng = np.random.default_rng(80 + rings)
    values = rng.random((D3_ROWS, len(eng.angular.weights)))
    weight = _row_weights(weights, D3_ROWS, rng)
    masses, rest = dense_masses_d3(eng, values, weight)
    total = norm_sq(values, weight, eng.angular)
    resolved, unresolved, after = eng._per_order(values, weight, stepping=False)
    assert after is None
    assert rel_dev(resolved, masses) <= REL_TOL
    assert abs(unresolved - rest) <= REL_TOL * total
    l2sq, hssq = eng.functionals(values, weight)
    assert_close(l2sq, total)
    assert_close(hssq, float(np.sum(eng.sigma * masses)))


@pytest.mark.parametrize(
    "rings, azimuths, lmax",
    [(8, 10, 8), (16, None, 8), (6, 20, 5)],
    ids=["cap-from-azimuths", "below-cap", "out-of-band-bins"],
)
def test_d3_per_order_matches_dense_map_on_more_rules(rings, azimuths, lmax):
    """The per-order route on three more ring x uniform-azimuth rules: 8
    rings of 10 nodes, whose lmax cap 4 is set by the azimuth count, 16 rings
    of 32 at lmax 8, below the cap, and 6 rings of 20 at lmax 5, whose 9 fft
    bins |k| > lmax per ring the polar tables zero.  The stepped spectrum,
    the step integrals, ||u||^2 after and the functionals match the dense
    map."""
    eng = _d3_engine(rings, azimuths, lmax)
    assert eng.lmax == (4 if azimuths == 10 else lmax)
    n = len(eng.angular.weights)
    rng = np.random.default_rng(100 + rings)
    spec = rng.standard_normal((D3_ROWS, n)) + 1j * rng.standard_normal((D3_ROWS, n))
    weight = _row_weights("per-row", D3_ROWS, rng)
    masses, rest = dense_masses_d3(
        eng, np.concatenate([spec.real, spec.imag]), np.tile(weight, 2)
    )
    want = spec @ dense_map_d3(eng)
    l2_int, hs_int, l2sq = eng.scatter_spectrum(spec, weight)
    assert rel_dev(spec, want) <= REL_TOL
    assert_step_integrals(eng, l2_int, hs_int, masses, rest)
    assert_close(l2sq, norm_sq(want, weight, eng.angular))
    values = rng.random((D3_ROWS, n))
    masses, rest = dense_masses_d3(eng, values, weight)
    l2sq, hssq = eng.functionals(values, weight)
    assert_close(l2sq, float(masses.sum()) + rest)
    assert_close(hssq, float(np.sum(eng.sigma * masses)))


def _not_a_product(kind):
    """polar_quadrature(6) made into a rule the per-order route cannot step."""
    rule = polar_quadrature(6)
    nodes, weights, degree = rule.nodes.copy(), rule.weights.copy(), rule.degree
    if kind == "azimuth-offset":
        # still uniform in azimuth, but not from azimuth 0
        turn = np.pi / 12.0
        c, s = np.cos(turn), np.sin(turn)
        nodes[:, :2] = nodes[:, :2] @ np.array([[c, s], [-s, c]])
    elif kind == "scrambled":
        nodes = nodes[np.random.default_rng(5).permutation(len(nodes))]
    elif kind == "ring-weights":
        weights[0::2] *= 1.1
        weights[1::2] *= 0.9
    elif kind == "degree-beyond-azimuths":
        # declared exact to degree 23, so lmax 11, but 12 azimuths hold 5
        degree = 23
    return SphereQuadrature(3, nodes, weights, degree)


@pytest.mark.parametrize(
    "kind", ["azimuth-offset", "scrambled", "ring-weights", "degree-beyond-azimuths"]
)
def test_d3_engine_rejects_rules_that_are_not_ring_products(kind):
    """A d = 3 rule that is not rings of equally weighted nodes at azimuths
    2 pi j / az, with 2 lmax < az, fails when the engine is built."""
    with pytest.raises(ParameterOutOfRange, match="polar_quadrature"):
        solver._SpectralEngine(SPEC3, _not_a_product(kind), 11, 0.05)


def test_d3_substep_slots_are_block_sized():
    """The d = 3 substep transforms, projects and synthesizes one block of rows
    at a time: after a step on a spectrum of many blocks, no workspace slot
    holds more than one block's real and imaginary parts."""
    cfg, _, grid, angular = _case("d3-spectral")
    grid = SpatialGrid(3, grid.X, ALLOC_CELLS["d3-spectral"])
    eng = _engine_for(cfg, random_field(grid, angular, seed=29))
    spec = _to_spectrum(random_field(grid, angular, seed=29))
    n = spec.shape[-1]
    assert spec.size >= 16 * SPHERE_BLOCK_ROWS * n
    eng.scatter_spectrum(spec, _parseval_weights(grid))
    assert eng._slots
    assert max(buf.size for buf in eng._slots.values()) <= SPHERE_BLOCK_ROWS * 2 * n * 8
    # one slot set per worker, the first the engine's own, each block-sized
    blocks = -(-spec.size // n // SPHERE_BLOCK_ROWS)
    assert eng._slot_sets[0] is eng._slots
    assert len(eng._slot_sets) == min(_cpus(), blocks)
    for slots in eng._slot_sets:
        assert slots.keys() == eng._slots.keys()
        assert max(buf.size for buf in slots.values()) <= SPHERE_BLOCK_ROWS * 2 * n * 8


# ---------------------------------------------------------------------------
# the d = 3 substep's row blocks on several threads

#: worker counts forced through `solver._cpus`: one thread, and pools whose
#: chunks are uneven on the marches and the block rows below
WORKERS = (1, 2, 3)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(solver, "_cpus", lambda: workers)


@pytest.mark.parametrize("rings", D3_RINGS)
def test_d3_march_bytes_do_not_depend_on_workers(rings, monkeypatch, tmp_path):
    """diagnostics.csv and every snapshot of a d = 3 march have the same
    bytes on 1, 2 and 3 workers.  The 8^3 grid's spectrum has 320 rows, five
    blocks: no whole number of blocks per worker at 2 or 3, and the observer
    takes `functionals` on 512 real rows every step."""
    cfg, _, grid, angular = _case("d3-spectral")
    angular = sphere_quadrature(3, rings)
    cfg = replace(cfg, snapshot_every=2, diagnostics_every=2)
    u0 = random_field(grid, angular, seed=31)
    blobs = []
    for workers in WORKERS:
        _force_workers(monkeypatch, workers)
        seen = []
        snaps, records = run(cfg, u0, lambda u, a, b, f: seen.append(f(u.values)))
        out = tmp_path / f"w{workers}"
        out.mkdir()
        write_diagnostics(records, str(out / "diagnostics.csv"))
        for i, snap in enumerate(snaps):
            write_snapshot(snap, str(out / f"snapshot_{i:04d}.bin"))
        files = sorted(out.iterdir())
        blobs.append(([f.name for f in files], [f.read_bytes() for f in files], seen))
    assert len(blobs[0][0]) == 4
    assert blobs[1] == blobs[0] and blobs[2] == blobs[0]


@pytest.mark.parametrize("rings", D3_RINGS)
@pytest.mark.parametrize("stepping", [True, False])
def test_d3_fold_blocks_do_not_depend_on_workers(rings, stepping, monkeypatch):
    """`_per_order` on D3_ROWS per-row-weighted rows, whose last block is
    partial: the masses and the stepped rows have the same bytes, and the
    remainder and ||u||^2 after the same values, on 1, 2 and 3 workers."""
    eng = _d3_engine(rings)
    n = len(eng.angular.weights)
    rng = np.random.default_rng(90 + rings)
    start = rng.standard_normal((D3_ROWS, n)) + 1j * rng.standard_normal((D3_ROWS, n))
    weight = _row_weights("per-row", D3_ROWS, rng)
    if not stepping:
        start = start.real.copy()
    got = []
    for workers in WORKERS:
        _force_workers(monkeypatch, workers)
        rows = start.copy()
        resolved, unresolved, after = eng._per_order(rows, weight, stepping)
        got.append((resolved.tobytes(), unresolved, after, rows.tobytes()))
    assert len(eng._slot_sets) == 3
    assert got[1] == got[0] and got[2] == got[0]


def test_in_order_keeps_item_order(monkeypatch):
    """`_in_order` returns the results in item order when a later item
    finishes first: on 3 workers each item waits for the next to finish."""
    _force_workers(monkeypatch, 3)
    done = [threading.Event() for _ in range(3)]
    finished = []

    def job(i):
        if i + 1 < len(done):
            assert done[i + 1].wait(timeout=30), f"item {i + 1} never finished"
        finished.append(i)
        done[i].set()
        return 10 * i

    assert solver._in_order(job, range(3)) == [0, 10, 20]
    assert finished == [2, 1, 0]


def test_in_order_spreads_items_over_every_worker(monkeypatch):
    """More items than workers still keep every worker busy: on 2 workers,
    4 items that meet in pairs at a barrier finish, which they could not if
    one thread ran three of them one after another."""
    _force_workers(monkeypatch, 2)
    pair = threading.Barrier(2, timeout=30)

    def job(i):
        pair.wait()
        return threading.get_ident()

    idents = solver._in_order(job, range(4))
    assert len(set(idents[:2])) == 2 and len(set(idents[2:])) == 2


def test_no_thread_outlives_a_d3_run(monkeypatch):
    """The pool of a d = 3 substep is closed before the substep returns,
    also when a block on a pool thread raises."""
    cfg, _, grid, angular = _case("d3-spectral")
    u0 = random_field(grid, angular, seed=37)
    _force_workers(monkeypatch, 3)
    threads = threading.active_count()
    run(cfg, u0)
    assert threading.active_count() == threads
    norm_sq_in_blocks = solver._norm_sq

    def fail_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise InvariantViolation("raised by a block on a pool thread")
        return norm_sq_in_blocks(*args)

    monkeypatch.setattr(solver, "_norm_sq", fail_off_the_main_thread)
    with pytest.raises(InvariantViolation, match="pool thread"):
        run(cfg, u0)
    assert threading.active_count() == threads
