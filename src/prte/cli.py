"""
Batch front door: INI configs in, CSV artifacts out.

    prte solve --config run.ini [--out DIR]
    prte eigs  --config run.ini [--out DIR]
    prte study --config run.ini [--out DIR] [--threads N]

Exit codes: 0 success, 2 config error, 3 invariant violation during a run,
4 numerical failure, 5 study finished but missed its thresholds.  The output
directory defaults to $PRTE_OUT, then the working directory.  For a fixed
config and build the emitted bytes do not depend on --threads (ladder jobs
are gathered in ladder order).

Config sections and keys (unknown ones are hard errors):

    [run]     dimension
    [kernel]  s, b1, remainder (none | const:<c> | poly:<c0>,<c1>,...), g
    [grids]   X, m, angles, L, n, lmax
    [solver]  dt, t_end, backend, snapshot_every, diagnostics_every
    [initial] kind, amplitude, sigma, center, sigma_theta, degree, contrast
    [study]   name, ladder, delta, n_ladder, transient_fraction,
              probe_width, probe_cut

The level-set ladder is given as fractions of max u(0); the other ladders are
absolute (g values for hg-convergence/operator-rate).  `[grids] lmax` bounds
`eigs` and the d=3 sphere-spectral engine; the d=2 sphere-spectral engine
ignores it and resolves every circular bin, angles // 2, and the
projected-plane engine ignores it too.
"""

import argparse
import configparser
import os
import sys

import numpy as np

from .errors import (
    ConfigError,
    InvariantViolation,
    NumericalError,
    ParameterOutOfRange,
    ThresholdError,
    UnknownKind,
)
from .experiments import (
    decay_study,
    hg_convergence_study,
    level_set_energy_check,
    operator_rate_study,
    rho_regularity_study,
    write_report,
)
from .fracop import PlaneField, PlaneGrid
from .kernels import HGSpec, KernelSpec, parse_remainder
from .scatter import funk_hecke_eigs, sphere_quadrature
from .solver import (
    ProjectedAngularGrid,
    SolverConfig,
    SpatialGrid,
    make_initial,
    run,
    write_diagnostics,
    write_snapshot,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NUMERICAL = 4
EXIT_STUDY = 5

STUDIES = ("hg-convergence", "operator-rate", "decay", "level-set", "rho-regularity")

_SCHEMA = {
    "run": {"dimension"},
    "kernel": {"s", "b1", "remainder", "g"},
    "grids": {"X", "m", "angles", "L", "n", "lmax"},
    "solver": {"dt", "t_end", "backend", "snapshot_every", "diagnostics_every"},
    "initial": {
        "kind",
        "amplitude",
        "sigma",
        "center",
        "sigma_theta",
        "degree",
        "contrast",
    },
    "study": {
        "name",
        "ladder",
        "delta",
        "n_ladder",
        "transient_fraction",
        "probe_width",
        "probe_cut",
    },
}

_REQUIRED = object()


def _load_config(path):
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    cp.optionxform = str
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise UnknownKind(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise UnknownKind(f"unknown key {key!r} in section [{section}]")
    return cp


def _get(cp, section, key, conv, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing required config key {section}.{key}")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def _floats(text):
    return tuple(float(tok) for tok in text.split(","))


def _kernel_from(cp):
    d = _get(cp, "run", "dimension", int)
    s = _get(cp, "kernel", "s", float)
    b1 = _get(cp, "kernel", "b1", float)
    h = parse_remainder(_get(cp, "kernel", "remainder", str, "none"))
    base = KernelSpec(d=d, s=s, b1=b1, h=h)
    g = _get(cp, "kernel", "g", float, None)
    return base if g is None else HGSpec(base=base, g=g)


def _solver_config_from(cp, kernel):
    return SolverConfig(
        kernel=kernel,
        dt=_get(cp, "solver", "dt", float),
        t_end=_get(cp, "solver", "t_end", float),
        lmax=_get(cp, "grids", "lmax", int),
        backend=_get(cp, "solver", "backend", str, "sphere-spectral"),
        snapshot_every=_get(cp, "solver", "snapshot_every", int, 0),
        diagnostics_every=_get(cp, "solver", "diagnostics_every", int, 1),
    )


def _angular_from(cp, d, backend):
    if backend == "projected-plane":
        plane = PlaneGrid(
            d=d, L=_get(cp, "grids", "L", float), n=_get(cp, "grids", "n", int)
        )
        return ProjectedAngularGrid(plane=plane)
    return sphere_quadrature(d, _get(cp, "grids", "angles", int))


def _initial_from(cp, d, backend):
    spatial = SpatialGrid(d, _get(cp, "grids", "X", float), _get(cp, "grids", "m", int))
    angular = _angular_from(cp, d, backend)
    kind = _get(cp, "initial", "kind", str)
    kwargs = {}
    for key, conv in (
        ("amplitude", float),
        ("sigma", float),
        ("center", _floats),
        ("sigma_theta", float),
        ("degree", int),
        ("contrast", float),
    ):
        val = _get(cp, "initial", key, conv, None)
        if val is not None:
            kwargs[key] = val
    return make_initial(kind, spatial, angular, **kwargs)


def _probe_from(cp, d):
    grid = PlaneGrid(
        d=d, L=_get(cp, "grids", "L", float), n=_get(cp, "grids", "n", int)
    )
    width = _get(cp, "study", "probe_width", float, 0.4)
    cut = _get(cp, "study", "probe_cut", float, 3.0)
    for name, value in (("probe_width", width), ("probe_cut", cut)):
        if not (np.isfinite(value) and value > 0.0):
            raise ParameterOutOfRange(f"need finite {name} > 0, got {value}")
    pts = grid.points()
    r2 = np.sum(pts * pts, axis=-1).reshape(grid.shape)
    vals = np.where(r2 < cut * cut, np.exp(-r2 / (2.0 * width**2)), 0.0)
    return PlaneField(grid, vals)


def _cmd_solve(cp, outdir):
    kernel = _kernel_from(cp)
    cfg = _solver_config_from(cp, kernel)
    u0 = _initial_from(cp, _get(cp, "run", "dimension", int), cfg.backend)
    snapshots, records = run(cfg, u0)
    diag_path = os.path.join(outdir, "diagnostics.csv")
    write_diagnostics(records, diag_path)
    for i, snap in enumerate(snapshots):
        write_snapshot(snap, os.path.join(outdir, f"snapshot_{i:04d}.bin"))
    print(
        f"solve: {len(records)} diagnostic rows, {len(snapshots)} snapshots -> {outdir}"
    )
    return EXIT_OK


def _cmd_eigs(cp, outdir):
    kernel = _kernel_from(cp)
    lmax = _get(cp, "grids", "lmax", int)
    table = funk_hecke_eigs(kernel, lmax)
    path = os.path.join(outdir, "eigs.csv")
    lines = ["l,lambda"]
    for l, lam in enumerate(table.lambdas):
        lines.append(f"{l},{'%.17g' % lam}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"eigs: {lmax + 1} modes -> {path}")
    return EXIT_OK


def _study_ladder(cp):
    ladder = _get(cp, "study", "ladder", _floats)
    if len(ladder) < 3:
        raise ConfigError(f"study ladder needs >= 3 points, got {len(ladder)}")
    return ladder


def _cmd_study(cp, outdir, threads):
    name = _get(cp, "study", "name", str)
    if name not in STUDIES:
        raise UnknownKind(f"unknown study {name!r}; choose from {STUDIES}")
    d = _get(cp, "run", "dimension", int)
    if name == "operator-rate":
        s = _get(cp, "kernel", "s", float)
        report = operator_rate_study(_probe_from(cp, d), s, _study_ladder(cp), threads)
    else:
        kernel = _kernel_from(cp)
        cfg = _solver_config_from(cp, kernel)
        u0 = _initial_from(cp, d, cfg.backend)
        if name == "hg-convergence":
            report = hg_convergence_study(cfg, u0, _study_ladder(cp), threads)
        elif name == "level-set":
            # ladder entries are fractions of the initial maximum
            m0 = float(np.max(u0.values))
            lambdas = tuple(f * m0 for f in _study_ladder(cp))
            report = level_set_energy_check(cfg, u0, lambdas)
        elif name == "decay":
            report = decay_study(
                cfg,
                u0,
                n_ladder=_get(cp, "study", "n_ladder", int, 12),
                transient_fraction=_get(cp, "study", "transient_fraction", float, 0.2),
            )
        else:
            report = rho_regularity_study(
                cfg, u0, delta=_get(cp, "study", "delta", float, 0.5)
            )
    csv_path, _ = write_report(report, outdir)
    status = "PASS" if report.passed else "FAIL"
    print(f"study {name}: {status} -> {csv_path}")
    return EXIT_OK if report.passed else EXIT_STUDY


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="prte", description="peaked radiative transfer batch runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "march a configured initial field and emit diagnostics"),
        ("eigs", "emit the angular eigenvalue table of the configured kernel"),
        ("study", "run a verification study and emit its report"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to an INI config")
        p.add_argument(
            "--out",
            default=None,
            help="output directory (default: $PRTE_OUT, then the working directory)",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker bound for ladder jobs (results never depend on it)",
        )
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    try:
        cp = _load_config(args.config)
        outdir = args.out or os.environ.get("PRTE_OUT") or os.getcwd()
        os.makedirs(outdir, exist_ok=True)
        if args.command == "solve":
            return _cmd_solve(cp, outdir)
        if args.command == "eigs":
            return _cmd_eigs(cp, outdir)
        return _cmd_study(cp, outdir, max(1, args.threads))
    except configparser.Error as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ThresholdError as exc:
        print(f"study threshold: {exc}", file=sys.stderr)
        return EXIT_STUDY
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
