"""
The benchmark's workloads: which prte job each one runs, and the inputs a
seed gives it.

A seed varies only the data the program receives -- the beam centre and its
angular width sigma_theta -- never a grid size or a step count, so the work
per job is the same for every seed.  Seed 0 is the documented configuration:
centre at the middle of the box, sigma_theta = 0.6.
"""

import math
import random
from dataclasses import dataclass
from typing import Optional

#: periodic box side and spatial beam width shared by every workload
BOX = 8.0
SIGMA = 1.0
#: seed 0 beam width and the range other seeds draw from
SIGMA_THETA_DEFAULT = 0.6
SIGMA_THETA_RANGE = (0.5, 0.7)
#: other seeds shift the beam centre by up to this much along each axis
CENTER_SHIFT = 0.5
#: level-set ladder, as fractions of max u(0)
LEVEL_SET_LADDER = (0.0, 0.25, 0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # prte subcommand: solve or study
    dimension: int
    s: float
    b1: float
    grids: tuple  # (key, value) pairs of the [grids] section
    backend: str
    dt: float
    steps: int
    diagnostics_every: int
    snapshot_every: int
    cells: int
    nodes: int
    study: Optional[str] = None

    def phase_points(self):
        """Cells x angular nodes: the phase-space points one step updates."""
        return self.cells * self.nodes


_D2_GRIDS = (("X", BOX), ("m", 64), ("angles", 128), ("lmax", 32))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-d2-beam",
            why="README-default d=2 solve: transport-bound march with snapshots on; "
            "where marching in spatial-Fourier space shows",
            command="solve",
            dimension=2,
            s=0.25,
            b1=1.0,
            grids=_D2_GRIDS,
            backend="sphere-spectral",
            dt=0.01,
            steps=20,
            diagnostics_every=20,
            snapshot_every=50,
            cells=64**2,
            nodes=128,
        ),
        Workload(
            name="solve-d3-beam",
            why="d=3 solve: the only 3-D FFTs and dense harmonic projection "
            "through BLAS; the memory-heaviest job",
            command="solve",
            dimension=3,
            s=0.5,
            b1=2.0**-0.5,
            grids=(("X", BOX), ("m", 16), ("angles", 16), ("lmax", 15)),
            backend="sphere-spectral",
            dt=0.02,
            steps=5,
            diagnostics_every=2,
            snapshot_every=0,
            cells=16**3,
            nodes=16 * 32,
        ),
        Workload(
            name="solve-d2-projected",
            why="projected-plane backend: scatter-bound RK4 march; shows what "
            "changes to the shared marcher cost this path",
            command="solve",
            dimension=2,
            s=0.25,
            b1=1.0,
            grids=(("X", BOX), ("m", 64), ("L", 16.0), ("n", 128), ("lmax", 32)),
            backend="projected-plane",
            dt=0.005,
            steps=12,
            diagnostics_every=5,
            snapshot_every=0,
            cells=64**2,
            nodes=128,
        ),
        Workload(
            name="study-level-set",
            why="level-set study on the d=2 grid: a march plus a replay march; "
            "where one marcher loop shows",
            command="study",
            dimension=2,
            s=0.25,
            b1=1.0,
            grids=_D2_GRIDS,
            backend="sphere-spectral",
            dt=0.01,
            steps=15,
            diagnostics_every=20,
            snapshot_every=0,
            cells=64**2,
            nodes=128,
            study="level-set",
        ),
    )
}


@dataclass(frozen=True)
class Beam:
    center: tuple
    sigma_theta: float


def beam_for_seed(seed, dimension):
    """The gaussian-beam data of one seed: seed 0 is the documented beam."""
    if seed == 0:
        return Beam((BOX / 2.0,) * dimension, SIGMA_THETA_DEFAULT)
    rng = random.Random(seed)
    center = tuple(
        BOX / 2.0 + rng.uniform(-CENTER_SHIFT, CENTER_SHIFT) for _ in range(dimension)
    )
    return Beam(center, rng.uniform(*SIGMA_THETA_RANGE))


def config_text(wl, beam, steps):
    """The INI config of one job of `wl` marching `steps` steps."""
    lines = [
        "[run]",
        f"dimension = {wl.dimension}",
        "[kernel]",
        f"s = {wl.s!r}",
        f"b1 = {wl.b1!r}",
        "[grids]",
        *(f"{k} = {v!r}" for k, v in wl.grids),
        "[solver]",
        f"dt = {wl.dt!r}",
        f"t_end = {steps * wl.dt!r}",
        f"backend = {wl.backend}",
        f"diagnostics_every = {wl.diagnostics_every}",
        f"snapshot_every = {wl.snapshot_every}",
        "[initial]",
        "kind = gaussian-beam",
        f"sigma = {SIGMA!r}",
        "center = " + ", ".join(repr(c) for c in beam.center),
        f"sigma_theta = {beam.sigma_theta!r}",
    ]
    if wl.study:
        lines += [
            "[study]",
            f"name = {wl.study}",
            "ladder = " + ", ".join(repr(f) for f in LEVEL_SET_LADDER),
        ]
    return "\n".join(lines) + "\n"


def _i0e(a):
    """exp(-a) I_0(a) by its power series (a is a few units here)."""
    total, term, k = 0.0, 1.0, 0
    while term > 1e-18 * total or k == 0:
        total += term
        k += 1
        term *= (a / 2.0) ** 2 / (k * k)
    return total * math.exp(-a)


def _projected_arc_mass(a, half_width, n=20000):
    """
    Beam angular mass over the part of the circle the projected plane
    [-L, L) covers: int 2/(1+v^2) exp((2v/(1+v^2) - 1) a) dv by Simpson.
    """
    h = 2.0 * half_width / n

    def f(v):
        b = 1.0 + v * v
        return 2.0 / b * math.exp((2.0 * v / b - 1.0) * a)

    total = f(-half_width) + f(half_width)
    for i in range(1, n):
        total += (4.0 if i % 2 else 2.0) * f(-half_width + i * h)
    return total * h / 3.0


def initial_mass(wl, beam):
    """
    Closed-form mass of the initial beam: angular mass x (2 pi sigma^2)^{d/2}.
    The projected backend only sees the arc its plane covers, so its angular
    mass is integrated over that arc.
    """
    a = 1.0 / beam.sigma_theta**2
    d = wl.dimension
    if wl.backend == "projected-plane":
        angular = _projected_arc_mass(a, dict(wl.grids)["L"])
    elif d == 2:
        angular = 2.0 * math.pi * _i0e(a)
    else:
        angular = 2.0 * math.pi / a * (1.0 - math.exp(-2.0 * a))
    return angular * (2.0 * math.pi * SIGMA**2) ** (d / 2.0)
