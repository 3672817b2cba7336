"""Only ``words.py`` knows the byte layout of the letter codec.

Every other module in ``src/twbraid`` goes through the codec's functions and
tables.  A module fails this test when it names the layout's private tables
(``_KIND_CODE``, ``_CODE_GENERATOR``), multiplies by the index span
(``kind_code * _INDEX_SPAN + index``), or builds a 256-entry table over the
byte values.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twbraid"
LAYOUT_TABLES = {"_KIND_CODE", "_CODE_GENERATOR"}
SPAN = "_INDEX_SPAN"


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _layout_uses(path):
    """(line, what) for every place the module handles the byte layout."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        line = getattr(node, "lineno", 0)
        if _name(node) in LAYOUT_TABLES:
            found.append((line, _name(node)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if SPAN in (_name(node.left), _name(node.right)):
                found.append((line, f"* {SPAN}"))
        elif isinstance(node, ast.Constant) and node.value == 256:
            found.append((line, "256-entry table"))
    return found


def test_only_words_knows_the_byte_layout():
    offences = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "words.py"
        for line, what in _layout_uses(path)
    ]
    assert not offences, f"byte layout outside words.py: {offences}"


def test_the_check_sees_the_layout_in_words():
    kinds = {what for _, what in _layout_uses(PACKAGE / "words.py")}
    assert kinds == LAYOUT_TABLES | {f"* {SPAN}", "256-entry table"}
