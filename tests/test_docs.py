import ast
import doctest
import importlib
import pkgutil
import sys
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


@pytest.mark.parametrize("name", MODULES)
def test_public_names_are_exported(name):
    # every __all__ name exists, and every top-level public def or class is
    # listed
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    public = [node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    assert [n for n in public if n not in exported] == []


@pytest.mark.parametrize("path", sorted(Path(reflact.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    # reflact has no runtime dependencies: every absolute import names a
    # standard-library module or __future__
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and not node.level]
    allowed = sys.stdlib_module_names | {"__future__"}
    assert [n for n in names if n.split(".")[0] not in allowed] == []


@pytest.mark.parametrize("path", sorted(Path(reflact.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # a name a module imports is read somewhere in it or re-exported
    # through __all__; a leftover import is dead code
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    assert {name: line for name, line in imported.items()
            if name not in used | exported} == {}


def test_module_level_caches_are_bounded():
    # a cache keyed by what input files supply (conductors, specs) must not
    # grow without bound; per-object facts live in the object's _memo
    sizes = {(name, attr): f.cache_parameters()["maxsize"] for name in MODULES
             for attr, f in vars(importlib.import_module(name)).items()
             if hasattr(f, "cache_parameters")}
    assert ("reflact.exactnum", "euler_phi") in sizes
    assert [key for key, size in sizes.items() if size is None] == []
