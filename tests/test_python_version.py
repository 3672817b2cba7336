"""Every Python file parses under the 3.10 grammar.

The package declares ``requires-python = ">=3.10"``.  This test parses each
``.py`` file under ``src/``, ``tests/`` and ``tools/`` with
``ast.parse(..., feature_version=(3, 10))``, so syntax newer than 3.10 (an
``except*`` clause, a ``type`` statement, a generic ``def f[T]``) fails
here.  It checks grammar only: a call to a standard-library module or
function added after 3.10 parses, and is not caught.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_file_parses_under_python_3_10():
    trees = ("src", "tests", "tools")
    paths = sorted(p for tree in trees for p in (ROOT / tree).rglob("*.py"))
    assert paths
    refused = []
    for path in paths:
        try:
            source = path.read_text(encoding="utf-8")
            ast.parse(source, str(path), feature_version=(3, 10))
        except SyntaxError as err:
            refused.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert not refused, refused
