import doctest
import importlib
import pkgutil

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
