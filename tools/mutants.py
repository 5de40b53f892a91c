"""
Mutation gate for the scattering engines' special cases.

    python3 tools/mutants.py

Each mutant below is one exact source edit, `old` -> `new`, that breaks one
special case of the engines, with the test files expected to catch it.  For
each mutant the script copies `src/`, `tests/` and `pyproject.toml` into a
temporary directory, applies the edit there, and runs those test files with
pytest; the mutant is killed when a test fails.  The unmutated copy runs
the same files first, so a kill is the edit's doing.  It prints one line per
mutant and killed/total, and exits 1 when a mutant survives, when an edit
does not apply (its `old` snippet must occur exactly once, which
`tests/test_mutants.py` checks in tier-1), or when a run errors.  The
checkout itself is never written.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOLVER = "src/prte/solver.py"
#: the test files that check the engines against their oracles
ENGINE_TESTS = (
    "tests/test_fourier_march.py",
    "tests/test_solver.py",
    "tests/test_projected_map.py",
    "tests/test_symmetry.py",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple = ENGINE_TESTS


MUTANTS = (
    Mutant(
        "m > 0 normalisation",
        SOLVER,
        "polar[:, 1:] /= np.sqrt(2.0)",
        "pass",
    ),
    Mutant(
        "|k| <= lmax bins",
        SOLVER,
        "np.where(l >= k, ",
        "np.where(l >= np.minimum(k, self.lmax), ",
    ),
    Mutant(
        "(2 pi / az) mass scale",
        SOLVER,
        "self.project = self.ring_weight[:, None] * polar",
        "self.project = self.ring_weight[:, None] * polar * self.ring_shape[1] / (2 * np.pi)",
    ),
    Mutant(
        "az synthesis scale",
        SOLVER,
        "grow = self.ring_shape[1] * np.expm1(lam * dt)",
        "grow = 2.0 * np.pi * np.expm1(lam * dt)",
    ),
    Mutant(
        "Nyquist degree",
        SOLVER,
        "self.bin_degree = np.minimum(k, m - k)",
        "self.bin_degree = np.minimum(k, m - 1 - k)",
    ),
    Mutant(
        "doubly-Nyquist fold",
        SOLVER,
        "folds += fold[index[a, rows], None] * theta[:, a]",
        "folds = fold[index[a, rows], None] * theta[:, a]",
    ),
    Mutant(
        "one fold per Nyquist row",
        SOLVER,
        "* np.cos(np.multiply.outer(fold[:n], theta[:, a]) * tau)",
        "* 1.0",
    ),
    Mutant("exact doubly-Nyquist rows", SOLVER, "out[at] = exact", "pass"),
    Mutant("block-order sum", SOLVER, "sum(blocks, [])", "blocks[0]"),
    Mutant(
        "pool results in order",
        SOLVER,
        "list(pool.map(job, items))",
        "[f.result() for f in __import__('concurrent.futures').futures.as_completed("
        "[pool.submit(job, x) for x in items])]",
    ),
    Mutant(
        "fused half-steps",
        SOLVER,
        "half if step == 1 else full",
        "full",
    ),
    Mutant(
        "mass repair",
        SOLVER,
        "out += ((pre_mass - out @ w) / self.wsum)[..., None]",
        "pass",
    ),
    Mutant(
        "null-lambda decay",
        SOLVER,
        "self.decay[nz] = np.expm1(2.0 * lam[nz] * dt) / (2.0 * lam[nz])",
        "pass",
    ),
)


def copy_tree(dest):
    """src/, tests/ and pyproject.toml of this checkout under dest."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(where, tests):
    """(pytest's exit code, its failed count) for the test files in `where`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(where, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=where, env=env, capture_output=True, text=True,
    )
    failed = re.search(r"(\d+) failed", done.stdout)
    return done.returncode, int(failed.group(1)) if failed else 0


def apply(where, mutant):
    """Write the mutant's edit into the copy; False if `old` is not there
    exactly once."""
    path = os.path.join(where, mutant.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(mutant.old) != 1:
        return False
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))
    return True


def main():
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="prte-mutants-") as tmp:
        clean = os.path.join(tmp, "clean")
        copy_tree(clean)
        code, failed = run_tests(clean, tests)
        if code != 0:
            print(f"unmutated tests do not pass (exit {code}, {failed} failed)")
            return 1
        killed = 0
        for mutant in MUTANTS:
            where = os.path.join(tmp, re.sub(r"\W+", "-", mutant.name))
            copy_tree(where)
            if not apply(where, mutant):
                print(f"{mutant.name}: `old` does not occur exactly once in {mutant.path}")
                continue
            code, failed = run_tests(where, mutant.tests)
            if code == 1:
                killed += 1
                verdict = f"killed, {failed} failed"
            elif code == 0:
                verdict = "SURVIVED"
            else:
                verdict = f"error, pytest exit {code}"
            print(f"{mutant.name}: {verdict}", flush=True)
            shutil.rmtree(where)
    print(f"killed {killed}/{len(MUTANTS)}")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
