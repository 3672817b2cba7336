"""Print every executable line of ``src/twbraid`` that no test runs.

Runs pytest in this process under ``sys.settrace``, with the arguments
given (the whole suite when there are none), and traces only the frames of
code in ``src/twbraid``.  A line is executable when the compiler gave it an
instruction: the lines of every code object compiled from the module, less
the body of an ``if __name__ == "__main__":`` block, which runs only when
the module runs as a script.  A line counts as run when the tracer saw it run, or when it is the first line
of a code object that was called, since a call reports that line as a call
event and not as a line event.  Prints one ``path:line: source`` per line
not run, then a summary, and exits with pytest's exit code.

Needs only the standard library and pytest.  Tracing slows the tests down
about twofold.  Run from the repository root; it puts ``src`` on
``sys.path`` itself:

    python3 tools/line_coverage.py tests/test_words.py -q
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twbraid"


def executable_lines(path: Path) -> set[int]:
    """The lines that some instruction of the module's code belongs to, less
    the bodies of its ``if __name__ == "__main__":`` blocks."""
    source = path.read_text(encoding="utf-8")
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def _line_tracer(lines: set[int]):
    """A frame's trace function that adds each line it runs to lines."""
    def local(frame, event, _arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def trace_tests(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with args under the tracer; returns its exit code and the
    lines run per traced file."""
    run: dict[str, set[int]] = {str(p): set() for p in sorted(PACKAGE.glob("*.py"))}
    tracers = {filename: _line_tracer(lines) for filename, lines in run.items()}

    def tracer(frame, event, _arg):
        code = frame.f_code
        local = tracers.get(code.co_filename)
        if local is not None:
            run[code.co_filename].add(code.co_firstlineno)
        return local

    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(status), run


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    status, run = trace_tests(argv)
    missing = total = 0
    for filename, lines in run.items():
        path = Path(filename)
        source = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - lines):
            missing += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"not run: {missing} of {total} executable lines in {len(run)} files")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
