"""Batch interface: config validation, artifact emission, exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import prte
from prte import solver
from prte.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_STUDY,
    main,
)
from prte.experiments import read_report
from prte.kernels import hg_limit_b1
from prte.solver import DIAGNOSTICS_HEADER, read_snapshot

BEAM_SOLVE = """
[run]
dimension = 2

[kernel]
s = 0.25
b1 = 1.0
remainder = none

[grids]
X = 8.0
m = 32
angles = 64
lmax = 32

[solver]
dt = 0.02
t_end = 0.5
snapshot_every = 10
diagnostics_every = 5

[initial]
kind = gaussian-beam
sigma = 1.0
sigma_theta = 0.6
"""

HG_STUDY = """
[run]
dimension = 2

[kernel]
s = 0.25
b1 = 1.0

[grids]
X = 8.0
m = 32
angles = 64
lmax = 32

[solver]
dt = 0.02
t_end = 1.0

[initial]
kind = gaussian-beam
sigma = 1.0
sigma_theta = 0.6

[study]
name = hg-convergence
ladder = 0.8,0.9,0.95
"""

LEVEL_SET_STUDY = HG_STUDY.replace(
    "name = hg-convergence\nladder = 0.8,0.9,0.95",
    "name = level-set\nladder = 0.0,0.25,0.5",
).replace("t_end = 1.0", "t_end = 0.5")

DECAY_STUDY = HG_STUDY.replace(
    "name = hg-convergence\nladder = 0.8,0.9,0.95", "name = decay"
).replace("kind = gaussian-beam", "kind = isotropic-blob").replace(
    "sigma = 1.0", "sigma = 0.5"
).replace("dt = 0.02\nt_end = 1.0", "dt = 0.025\nt_end = 2.5")

OPERATOR_RATE_STUDY = """
[run]
dimension = 2

[kernel]
s = 0.25
b1 = 1.0

[grids]
L = 16.0
n = 512

[study]
name = operator-rate
ladder = 0.9,0.95,0.975,0.99
"""


def write_ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv_columns(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {h: [float(r[i]) for r in rows] for i, h in enumerate(header)}


class TestConfigValidation:
    """Unknown or missing keys are hard errors with exit code 2."""

    def test_unknown_key(self, tmp_path):
        cfg = write_ini(tmp_path, BEAM_SOLVE + "zeta = 1\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_section(self, tmp_path):
        cfg = write_ini(tmp_path, BEAM_SOLVE + "\n[plotting]\nstyle = dark\n")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_kernel_s(self, tmp_path):
        text = "\n".join(
            line for line in BEAM_SOLVE.splitlines() if not line.startswith("s = ")
        )
        cfg = write_ini(tmp_path, text)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unreadable_config(self, tmp_path):
        missing = str(tmp_path / "nope.ini")
        assert main(["solve", "--config", missing, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_malformed_value(self, tmp_path):
        cfg = write_ini(tmp_path, BEAM_SOLVE.replace("dt = 0.02", "dt = fast"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_study_name(self, tmp_path):
        cfg = write_ini(tmp_path, HG_STUDY.replace("name = hg-convergence", "name = mystery"))
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("case", ["ini-syntax-error", "out-under-a-file"])
    def test_unusable_config_or_out_exits_2(self, tmp_path, capsys, case):
        """A configparser.Error and an OSError exit 2, as a ConfigError does
        (test_unreadable_config)."""
        cfg = write_ini(tmp_path, BEAM_SOLVE)
        out = str(tmp_path / "out")
        if case == "ini-syntax-error":
            cfg = write_ini(tmp_path, "dimension = 2\n" + BEAM_SOLVE, name="bad.ini")
        else:
            out = os.path.join(cfg, "out")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        """A config that does not decode is a config error, not a traceback."""
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"\xff\xfe[run]\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, err

    @pytest.mark.parametrize("command", ["solve", "eigs", "study"])
    def test_threads_is_a_usage_error_outside_study(self, tmp_path, capsys, command):
        """There is no --threads: the CPUs the process may use size every
        thread pool, so each command rejects it as argparse does any unknown
        flag (exit 2) and writes nothing."""
        cfg = write_ini(tmp_path, BEAM_SOLVE)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--out", str(out), "--threads", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_two_point_ladder(self, tmp_path):
        cfg = write_ini(tmp_path, HG_STUDY.replace("ladder = 0.8,0.9,0.95", "ladder = 0.8,0.9"))
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_initial_kind(self, tmp_path):
        cfg = write_ini(tmp_path, BEAM_SOLVE.replace("kind = gaussian-beam", "kind = ring"))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, base, edits",
        [
            ("solve", BEAM_SOLVE, {"remainder = none": "remainder = const:abc"}),
            ("solve", BEAM_SOLVE, {"sigma = 1.0": "sigma = 1.0\ncenter = 1.0"}),
            ("solve", BEAM_SOLVE, {"b1 = 1.0": "b1 = nan"}),
            ("solve", BEAM_SOLVE, {"b1 = 1.0": "b1 = inf"}),
            ("solve", BEAM_SOLVE, {"X = 8.0": "X = nan"}),
            ("solve", BEAM_SOLVE, {"dt = 0.02": "dt = nan"}),
            ("solve", BEAM_SOLVE, {"dt = 0.02": "dt = 5e-324"}),
            ("solve", BEAM_SOLVE, {"t_end = 0.5": "t_end = 1e308"}),
            ("solve", BEAM_SOLVE, {"X = 8.0": "X = 1e200"}),
            ("solve", BEAM_SOLVE, {"sigma = 1.0": "sigma = 1e308"}),
            ("solve", BEAM_SOLVE, {"X = 8.0": "X = 1e308", "sigma = 1.0\n": ""}),
            ("solve", BEAM_SOLVE, {"sigma_theta = 0.6": "sigma_theta = 1e308"}),
            ("solve", BEAM_SOLVE, {"sigma = 1.0": "sigma = 1e-200"}),
            (
                "solve",
                BEAM_SOLVE,
                {"kind = gaussian-beam": "kind = harmonic-perturbation\ndegree = -1"},
            ),
            (
                "solve",
                BEAM_SOLVE,
                {
                    "[solver]": "[solver]\nbackend = projected-plane",
                    "angles = 64": "L = 8.0\nn = 32",
                    "dt = 0.02\nt_end = 0.5": "dt = 0.002\nt_end = 0.004",
                    "sigma_theta = 0.6": "sigma_theta = 1e-300",
                },
            ),
            ("solve", BEAM_SOLVE, {"sigma_theta = 0.6": "sigma_theta = 1e-160"}),
            (
                "solve",
                BEAM_SOLVE,
                {
                    "dimension = 2": "dimension = 3",
                    "m = 32": "m = 8",
                    "angles = 64": "angles = 6",
                    "kind = gaussian-beam": "kind = harmonic-perturbation\ndegree = -1",
                },
            ),
            (
                "solve",
                BEAM_SOLVE,
                {
                    "dimension = 2": "dimension = 3",
                    "m = 32": "m = 8",
                    "angles = 64": "angles = 4",
                    "kind = gaussian-beam": "kind = harmonic-perturbation\ndegree = 100000",
                },
            ),
            ("solve", BEAM_SOLVE, {"sigma = 1.0": "sigma = 1.0\namplitude = 1e300"}),
            ("solve", BEAM_SOLVE, {"b1 = 1.0": "b1 = 1e308"}),
            (
                "solve",
                BEAM_SOLVE,
                {
                    "dimension = 2": "dimension = 3",
                    "m = 32": "m = 8",
                    "angles = 64": "angles = 6",
                    "b1 = 1.0": "b1 = 1e308",
                },
            ),
            (
                "eigs",
                BEAM_SOLVE,
                {"dimension = 2": "dimension = 3", "b1 = 1.0": "b1 = 1e308"},
            ),
            ("solve", BEAM_SOLVE, {"remainder = none": "remainder = const:1e308"}),
            ("study", LEVEL_SET_STUDY, {"ladder = 0.0,0.25,0.5": "ladder = 0,nan,0.5"}),
            ("study", LEVEL_SET_STUDY, {"ladder = 0.0,0.25,0.5": "ladder = 0,0.25,inf"}),
            ("study", DECAY_STUDY, {"name = decay": "name = decay\nn_ladder = -3"}),
            ("study", DECAY_STUDY, {"name = decay": "name = decay\nn_ladder = 4"}),
            (
                "study",
                DECAY_STUDY,
                {"name = decay": "name = decay\nn_ladder = 100000000000"},
            ),
            (
                "study",
                DECAY_STUDY,
                {"dt = 0.025\nt_end = 2.5": "dt = 1.0\nt_end = 2.5"},
            ),
            (
                "study",
                DECAY_STUDY,
                {"name = decay": "name = decay\ntransient_fraction = nan"},
            ),
            (
                "study",
                DECAY_STUDY,
                {"name = decay": "name = decay\ntransient_fraction = 1.0"},
            ),
            (
                "study",
                OPERATOR_RATE_STUDY,
                {"name = operator-rate": "name = operator-rate\nprobe_cut = 0"},
            ),
            (
                "study",
                OPERATOR_RATE_STUDY,
                {"name = operator-rate": "name = operator-rate\nprobe_width = -1"},
            ),
            (
                "study",
                OPERATOR_RATE_STUDY,
                {"name = operator-rate": "name = operator-rate\nprobe_width = nan"},
            ),
        ],
        ids=[
            "remainder-abc",
            "center-short",
            "b1-nan",
            "b1-inf",
            "X-nan",
            "dt-nan",
            "dt-tiny",
            "t-end-huge",
            "X-huge",
            "sigma-huge",
            "X-huge-default-sigma",
            "sigma-theta-huge",
            "sigma-tiny",
            "degree-negative-d2",
            "beam-sigma-theta-tiny-projected",
            "beam-sigma-theta-tiny-sphere",
            "degree-negative-d3",
            "degree-huge-d3",
            "amplitude-huge",
            "b1-huge-d2",
            "b1-huge-d3",
            "b1-huge-d3-eigs",
            "remainder-huge",
            "level-set-lambda-nan",
            "level-set-lambda-inf",
            "decay-n-ladder-negative",
            "decay-n-ladder-4",
            "decay-n-ladder-huge",
            "decay-t-end-off-grid",
            "decay-transient-nan",
            "decay-transient-one",
            "operator-rate-cut-zero",
            "operator-rate-width-negative",
            "operator-rate-width-nan",
        ],
    )
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, command, base, edits):
        text = base
        for old, new in edits.items():
            assert old in text, old
            text = text.replace(old, new)
        cfg = write_ini(tmp_path, text)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, err


class TestSolve:
    """Artifact emission and in-run invariant enforcement."""

    def test_beam_run_artifacts(self, tmp_path):
        cfg = write_ini(tmp_path, BEAM_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        diag = out / "diagnostics.csv"
        assert open(diag).readline().strip() == DIAGNOSTICS_HEADER
        cols = read_csv_columns(str(diag))
        assert len(cols["time"]) == 6, f"expected 6 rows, got {len(cols['time'])}"
        snaps = sorted(out.glob("snapshot_*.bin"))
        assert len(snaps) == 4, f"snapshots: {[s.name for s in snaps]}"
        d, m, n_ang, t, values = read_snapshot(str(snaps[-1]))
        assert (d, m, n_ang) == (2, 32, 64) and t == pytest.approx(0.5)

    def test_equilibrium_rows_constant(self, tmp_path):
        # null kernel: pure transport; every dynamics-driven column is flat
        text = BEAM_SOLVE.replace("b1 = 1.0", "b1 = 0.0").replace(
            "kind = gaussian-beam", "kind = isotropic-blob"
        )
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "eq"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        cols = read_csv_columns(str(out / "diagnostics.csv"))
        mass, l2 = np.array(cols["mass"]), np.array(cols["l2"])
        assert np.all(np.abs(mass - mass[0]) <= 1e-13 * mass[0]), f"mass: {mass}"
        assert np.all(np.abs(l2 - l2[0]) <= 1e-12 * l2[0]), f"l2: {l2}"
        assert np.all(np.array(cols["hs_integral"]) == 0.0)
        assert np.all(np.abs(cols["energy_residual"]) <= 1e-12)

    def test_projected_dt_above_bound_exits_3(self, tmp_path):
        text = BEAM_SOLVE.replace(
            "[solver]", "[solver]\nbackend = projected-plane"
        ).replace("angles = 64", "L = 16.0\nn = 128")
        cfg = write_ini(tmp_path, text)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == EXIT_INVARIANT, f"expected exit 3, got {code}"


class TestEigs:
    """Eigenvalue table artifact."""

    EIGS = """
[run]
dimension = 2

[kernel]
s = 0.25
b1 = {b1}
{gline}

[grids]
lmax = 64
"""

    def run_eigs(self, tmp_path, tag, b1, g=None):
        gline = f"g = {g}" if g is not None else ""
        cfg = write_ini(tmp_path, self.EIGS.format(b1=b1, gline=gline), f"{tag}.ini")
        out = tmp_path / tag
        assert main(["eigs", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = open(out / "eigs.csv").read().splitlines()
        assert lines[0] == "l,lambda"
        return lines

    def test_first_row_exactly_zero(self, tmp_path):
        lines = self.run_eigs(tmp_path, "lim", 1.0)
        assert lines[1] == "0,0", f"lambda_0 row: {lines[1]!r}"
        assert len(lines) == 66, f"expected 65 modes + header, got {len(lines)}"

    def test_hg_below_limit_above_dipole(self, tmp_path):
        # the family limit carries b1 = 2^{1-alpha}; against it the bounded
        # kernel is weaker on every mode l >= 2 (the dipole overshoots by ~1%:
        # b^g exceeds the limit kernel near backscatter)
        b1 = hg_limit_b1(2, 0.25)
        lim = [float(l.split(",")[1]) for l in self.run_eigs(tmp_path, "lim", b1)[1:]]
        hg = [
            float(l.split(",")[1])
            for l in self.run_eigs(tmp_path, "hg", b1, g=0.9)[1:]
        ]
        assert hg[0] == 0.0
        for l in range(2, 65):
            assert abs(hg[l]) <= abs(lim[l]) + 1e-12, (
                f"l={l}: |{hg[l]}| > |{lim[l]}|"
            )
        assert abs(hg[1]) > abs(lim[1]), "dipole overshoot disappeared"
        assert abs(hg[1]) <= 1.02 * abs(lim[1]), f"dipole overshoot too big: {hg[1]}"


class TestStudyDispatch:
    """Each study name runs, reports, and round-trips through the reader."""

    def test_hg_convergence_pass(self, tmp_path):
        cfg = write_ini(tmp_path, HG_STUDY)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = read_report(str(out / "hg-convergence.report.csv"))
        assert rep.passed and len(rep.ladder) == 3

    def test_nonmonotone_ladder_exits_5(self, tmp_path):
        cfg = write_ini(tmp_path, HG_STUDY.replace("0.8,0.9,0.95", "0.5,0.7,0.85"))
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == EXIT_STUDY

    def test_operator_rate(self, tmp_path):
        cfg = write_ini(tmp_path, OPERATOR_RATE_STUDY)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = read_report(str(out / "operator-rate.report.csv"))
        assert rep.passed
        assert any(f.label == "far_field_decay_slope" for f in rep.fits)

    def test_decay_and_short_window(self, tmp_path):
        text = DECAY_STUDY
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = read_report(str(out / "decay.report.csv"))
        assert rep.passed
        short = write_ini(
            tmp_path, text.replace("dt = 0.025\nt_end = 2.5", "dt = 0.625\nt_end = 2.5"),
            "short.ini",
        )
        assert main(["study", "--config", short, "--out", str(out)]) == EXIT_STUDY

    def test_level_set_fractions(self, tmp_path):
        cfg = write_ini(tmp_path, LEVEL_SET_STUDY)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = read_report(str(out / "level-set.report.csv"))
        assert rep.passed
        labels = {c.label for c in rep.checks}
        assert "matches_marcher_at_lambda_zero" in labels

    def test_rho_regularity(self, tmp_path):
        text = HG_STUDY.replace(
            "name = hg-convergence\nladder = 0.8,0.9,0.95",
            "name = rho-regularity\ndelta = 0.5",
        ).replace("t_end = 1.0", "t_end = 0.5")
        cfg = write_ini(tmp_path, text)
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rep = read_report(str(out / "rho-regularity.report.csv"))
        assert rep.passed


class TestDeterminism:
    """Same config, same build: bytes never depend on the worker count."""

    def test_study_report_bytes_across_threads(self, tmp_path, monkeypatch):
        cfg = write_ini(tmp_path, HG_STUDY)
        blobs = []
        for workers, tag in ((1, "a"), (3, "b")):
            out = tmp_path / tag
            monkeypatch.setattr(solver, "_cpus", lambda: workers)
            code = main(["study", "--config", cfg, "--out", str(out)])
            assert code == EXIT_OK
            blobs.append(open(out / "hg-convergence.report.csv", "rb").read())
        assert blobs[0] == blobs[1], "thread count leaked into the report bytes"

    def test_solve_diagnostics_bytes_repeat(self, tmp_path):
        cfg = write_ini(tmp_path, BEAM_SOLVE)
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
            blobs.append(open(out / "diagnostics.csv", "rb").read())
        assert blobs[0] == blobs[1], "repeat run changed diagnostics bytes"


class TestOutDirectory:
    """--out flag beats $PRTE_OUT beats the working directory."""

    def test_env_default(self, tmp_path, monkeypatch):
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("PRTE_OUT", str(envdir))
        cfg = write_ini(tmp_path, BEAM_SOLVE)
        assert main(["solve", "--config", cfg]) == EXIT_OK
        assert (envdir / "diagnostics.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRTE_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        cfg = write_ini(tmp_path, BEAM_SOLVE)
        assert main(["solve", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "diagnostics.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestStartup:
    """What a bare `import prte.cli` pulls in, which every job pays."""

    @staticmethod
    def last_line(probe):
        """Run `probe` in a fresh interpreter on this checkout's sources and
        return the last line it printed."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(prte.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            check=True,
        )
        return out.stdout.strip().splitlines()[-1]

    def test_scipy_integrate_not_imported(self):
        probe = "import sys, prte.cli; print('scipy.integrate' in sys.modules)"
        assert self.last_line(probe) == "False", "import prte.cli loaded scipy.integrate"

    def test_d2_solve_leaves_scipy_linalg_unloaded(self, tmp_path):
        """Gauss-Legendre rules come from numpy: the Funk-Hecke quadrature of a
        d=2 sphere-spectral solve must not pay for importing scipy.linalg."""
        args = ["solve", "--config", write_ini(tmp_path, BEAM_SOLVE), "--out", str(tmp_path)]
        probe = (
            f"import sys, prte.cli; code = prte.cli.main({args!r}); "
            "print(code, 'scipy.linalg' in sys.modules)"
        )
        last = self.last_line(probe)
        assert last == "0 False", f"a d=2 solve ended with {last!r} (exit code, scipy.linalg loaded)"

    # tiny versions of every job kind the benchmark runs: (command, config)
    JOBS = {
        "d2-beam": ("solve", BEAM_SOLVE.replace("t_end = 0.5", "t_end = 0.04")),
        "d2-projected": (
            "solve",
            BEAM_SOLVE.replace("[solver]", "[solver]\nbackend = projected-plane")
            .replace("angles = 64", "L = 8.0\nn = 32")
            .replace("dt = 0.02\nt_end = 0.5", "dt = 0.002\nt_end = 0.004"),
        ),
        "d3-beam": (
            "solve",
            BEAM_SOLVE.replace("dimension = 2", "dimension = 3")
            .replace("m = 32", "m = 8")
            .replace("angles = 64", "angles = 6")
            .replace("lmax = 32", "lmax = 5")
            .replace("t_end = 0.5", "t_end = 0.04"),
        ),
        "level-set": ("study", LEVEL_SET_STUDY.replace("t_end = 0.5", "t_end = 0.04")),
    }

    @pytest.mark.parametrize("kind", list(JOBS))
    def test_job_leaves_scipy_unloaded(self, tmp_path, kind):
        """Gamma values, Gauss rules, Legendre rows and spherical harmonics
        all come from math, numpy and recurrences: no job kind imports scipy."""
        command, text = self.JOBS[kind]
        args = [command, "--config", write_ini(tmp_path, text), "--out", str(tmp_path)]
        probe = (
            f"import sys, prte.cli; code = prte.cli.main({args!r}); "
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        last = self.last_line(probe)
        assert last == "0 []", f"{kind} ended with {last!r} (exit code, scipy modules)"
