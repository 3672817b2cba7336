"""``tools/line_coverage.py`` runs one small test module under its tracer
and prints the lines of ``src/twbraid`` that the module does not run."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_the_lines_a_test_module_does_not_run():
    # test_enums imports every module, which runs its top-level lines, and
    # calls no search
    got = subprocess.run(
        [sys.executable, "tools/line_coverage.py", "tests/test_enums.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert got.returncode == 0, got.stderr
    summary = got.stdout.splitlines()[-1]
    match = re.fullmatch(r"not run: (\d+) of (\d+) executable lines in (\d+) files",
                         summary)
    assert match, summary
    missing, total, files = map(int, match.groups())
    assert 0 < missing < total
    assert files == len(list((ROOT / "src" / "twbraid").glob("*.py")))
    printed = set(re.findall(r"^(src/twbraid/\w+\.py:\d+): ", got.stdout, re.M))
    assert len(printed) == missing

    tree = ast.parse((ROOT / "src" / "twbraid" / "markov.py").read_text())
    search = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "markov_equivalent_bounded")
    assert f"src/twbraid/markov.py:{search.lineno}" not in printed  # the def ran
    # the first statement after the docstring did not
    assert f"src/twbraid/markov.py:{search.body[1].lineno}" in printed

    # the body of cli.py's script guard runs only as a script: it is left out
    tree = ast.parse((ROOT / "src" / "twbraid" / "cli.py").read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert f"src/twbraid/cli.py:{guard.body[0].lineno}" not in printed
