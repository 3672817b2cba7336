"""Only ``words.py`` knows the byte layout of the letter codec.

Every other module in ``src/twbraid`` goes through the codec's functions and
tables.  A module fails this test when it names the layout's private tables
(``_KIND_CODE``, ``_CODE_GENERATOR``), multiplies by the index span
(``kind_code * _INDEX_SPAN + index``), or builds a 256-entry table over the
byte values (``bytes(256)``, ``bytearray(256)``, ``range(256)`` or
``... * 256``).  Any other 256, such as a cache size, is not a table.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twbraid"
LAYOUT_TABLES = {"_KIND_CODE", "_CODE_GENERATOR"}
SPAN = "_INDEX_SPAN"
TABLE_BUILDERS = {"bytes", "bytearray", "range"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    return None


def _sizes_a_byte_table(node):
    """Whether node is bytes(256), bytearray(256), range(256) or x * 256."""
    if isinstance(node, ast.Call) and _name(node.func) in TABLE_BUILDERS:
        operands = node.args
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        operands = (node.left, node.right)
    else:
        return False
    return any(isinstance(x, ast.Constant) and x.value == 256 for x in operands)


def _layout_uses(path):
    """(line, what) for every place the module handles the byte layout."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        line = getattr(node, "lineno", 0)
        if _name(node) in LAYOUT_TABLES:
            found.append((line, _name(node)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (
            SPAN in (_name(node.left), _name(node.right))
        ):
            found.append((line, f"* {SPAN}"))
        elif _sizes_a_byte_table(node):
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


def test_only_tables_over_the_byte_values_count(tmp_path):
    cache = tmp_path / "cache.py"
    cache.write_text("@functools.lru_cache(maxsize=256)\ndef f(x):\n    return x\n")
    assert _layout_uses(cache) == []
    for form in ("bytes(256)", "bytearray(256)", "range(256)", "[0] * 256"):
        table = tmp_path / "table.py"
        table.write_text(f"TABLE = {form}\n")
        assert _layout_uses(table) == [(1, "256-entry table")], form
