"""Every name the package defines is used somewhere.

A top-level function, class or assignment in ``src/twbraid/*.py``, and every
non-dunder method of a top-level class, must be referenced at least once
across ``src/``, ``tests/``, ``tools/`` or ``perfbench/``: loaded as a name,
read as an attribute or imported.  A definition does not count as its own
use.  ``__all__`` is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "tools", "perfbench")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """(name, is_method) for every checked definition in one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, False
        elif isinstance(node, ast.ClassDef):
            yield node.name, False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (item.name.startswith("__") and item.name.endswith("__")):
                        yield item.name, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and sub.id != "__all__":
                        yield sub.id, False


def _references():
    """Names loaded, attributes read and names imported, over all trees."""
    names, attrs = set(), set()
    for tree_name in TREES:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names, attrs


def test_every_defined_name_is_used():
    names, attrs = _references()
    dead = []
    for path in sorted((ROOT / "src" / "twbraid").glob("*.py")):
        for name, is_method in _definitions(_parse(path)):
            used = name in attrs if is_method else name in names or name in attrs
            if not used:
                dead.append(f"{path.name}:{name}")
    assert not dead, f"defined but never used: {dead}"
