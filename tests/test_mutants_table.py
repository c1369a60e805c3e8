"""The standing mutation check's table, without running it: every entry of
tests/mutants.py names a fragment that occurs once in its file and tests
that exist, so a change that orphans a mutant fails here and not only in
the minute-long run of the script."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


def _defines(path: Path, names: list[str]) -> bool:
    """Whether the module at ``path`` defines the class and function chain
    ``names`` (a test id's parts after the file, parameters stripped)."""
    body = ast.parse(path.read_text()).body
    for name in names:
        found = [node for node in body
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_fragment_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *names = test_id.split("::")
        names[-1] = names[-1].split("[")[0]
        assert (ROOT / path).is_file(), test_id
        assert _defines(ROOT / path, names), test_id
