"""Every test module imports.

The suite runs with ``--continue-on-collection-errors``, so a test module
that stops importing (a name it imports was renamed or deleted) would drop
all of its tests without one failure.  This test imports each
``tests/test_*.py`` itself and fails with the module's name and its
ImportError.
"""

import importlib
from pathlib import Path

import pytest

MODULES = sorted(path.stem for path in Path(__file__).resolve().parent.glob("test_*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    try:
        importlib.import_module(name)
    except ImportError as err:
        pytest.fail(f"{name} does not import: {err!r}")
