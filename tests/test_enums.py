"""Every enum in the package hashes by identity.

Enum members are singletons compared by identity.  ``words.IdentityEnum``
gives them ``object.__hash__`` in place of ``Enum.__hash__``, a Python-level
call, so dict and set lookups keyed by members stay in C.  Every module of
``src/twbraid`` is imported, and every enum class it defines must inherit
that hash.
"""

import enum
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twbraid"


def _enums():
    """Every enum class defined in a module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "twbraid" if path.stem == "__init__" else f"twbraid.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, enum.Enum)
                and obj.__module__ == name
            ):
                yield obj


def test_every_enum_hashes_by_identity():
    found = list(_enums())
    names = {cls.__name__ for cls in found}
    expected = {"Kind", "Category", "EventKind", "Turn", "Role", "MoveKind", "Family"}
    assert names >= expected
    for cls in found:
        assert cls.__hash__ is object.__hash__, cls.__name__
        for member in cls:
            assert hash(member) == object.__hash__(member), member

