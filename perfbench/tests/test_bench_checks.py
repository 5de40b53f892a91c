"""The output checks accept a sound diagnostics.csv and reject broken ones."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from checks import DIAGNOSTICS_HEADER, check_job, read_diagnostics  # noqa: E402
from workloads import WORKLOADS, beam_for_seed, initial_mass  # noqa: E402

WL = WORKLOADS["solve-d2-beam"]
STEPS = 40


def _rows(mass):
    """A plausible run: constant mass, decaying L2, zero residuals."""
    return [
        (0.0, mass, 1.85, 1.0, 0.0, 0.0),
        (0.2, mass, 1.20, 0.43, 0.18, -2e-14),
        (0.4, mass, 1.12, 0.30, 0.25, 0.0),
    ]


def _write(outdir, rows):
    with open(os.path.join(outdir, "diagnostics.csv"), "w") as fh:
        fh.write(DIAGNOSTICS_HEADER + "\n")
        for r in rows:
            fh.write(",".join("%.17g" % v for v in r) + "\n")
    payload = 28 + 8 * WL.phase_points()
    for i in range(2):
        with open(os.path.join(outdir, f"snapshot_{i:04d}.bin"), "wb") as fh:
            fh.truncate(payload)


def _mass0():
    return initial_mass(WL, beam_for_seed(0, WL.dimension))


def test_sound_output_passes(tmp_path):
    _write(tmp_path, _rows(_mass0()))
    assert read_diagnostics(tmp_path / "diagnostics.csv")[1][2] == 1.20
    assert check_job(WL, STEPS, str(tmp_path), _mass0()) == []


def test_injected_mass_drift_is_rejected(tmp_path):
    rows = _rows(_mass0())
    rows[1] = (rows[1][0], rows[1][1] * (1.0 + 1e-7)) + rows[1][2:]
    _write(tmp_path, rows)
    problems = check_job(WL, STEPS, str(tmp_path), _mass0())
    assert any("mass drift" in p for p in problems)


def test_wrong_initial_mass_is_rejected(tmp_path):
    _write(tmp_path, _rows(_mass0() * (1.0 + 1e-9)))
    problems = check_job(WL, STEPS, str(tmp_path), _mass0())
    assert any("closed form" in p for p in problems)


def test_l2_growth_and_negative_residual_are_rejected(tmp_path):
    rows = _rows(_mass0())
    rows[2] = (0.4, rows[2][1], 1.21, 0.30, 0.25, -1e-3)
    _write(tmp_path, rows)
    problems = check_job(WL, STEPS, str(tmp_path), _mass0())
    assert any("L2 grew" in p for p in problems)
    assert any("energy residual" in p for p in problems)


def test_reference_mismatch_is_rejected(tmp_path):
    rows = _rows(_mass0())
    _write(tmp_path, rows)
    reference = {"steps": STEPS, "row": rows[-1][:2] + (1.13,) + rows[-1][3:]}
    problems = check_job(WL, STEPS, str(tmp_path), _mass0(), reference)
    assert any("final l2" in p for p in problems)
