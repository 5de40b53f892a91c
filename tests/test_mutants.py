"""`tools/mutants.py`: every mutant's `old` snippet occurs exactly once in
its file, so a refactor that moves a special case updates the list with it."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(ROOT, "tools", "mutants.py")
)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_snippet_occurs_once(mutant):
    with open(os.path.join(ROOT, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1
    assert mutant.new != mutant.old
    for test in mutant.tests:
        assert os.path.isfile(os.path.join(ROOT, test)), test
