import ast
import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import reflact

# importing reflact.__main__ runs the command line
MODULES = ["reflact"] + sorted(
    info.name for info in pkgutil.iter_modules(reflact.__path__, "reflact.")
    if info.name != "reflact.__main__")


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


@pytest.mark.parametrize("path", sorted(Path(reflact.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so checks that guard correctness
    # must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], "%s: assert at lines %s" % (path.name, lines)
