"""Every name the package defines is used somewhere.

A top-level function, class or assignment in ``src/twbraid/*.py``, and every
non-dunder method of a top-level class, must be referenced at least once
across ``src/``, ``tests/``, ``tools/`` or ``perfbench/``: loaded as a name,
read as an attribute or imported.  A definition does not count as its own
use.  ``__all__`` is exempt.

Every parameter with a default, of a top-level function in
``src/twbraid/*.py``, is passed by some call across the same trees, by
keyword or by position: a default that no call overrides is a constant.
And a parameter with a default, of a ``_``-prefixed top-level function, is
left out by some call in ``src/``, ``tools/`` or ``perfbench/``: a private
default that only tests use serves nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "tools", "perfbench")
PROGRAM_TREES = ("src", "tools", "perfbench")


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


def _defaulted_parameters(tree):
    """(function, parameter, position) for every parameter with a default of
    a top-level function; keyword-only parameters have position None."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for k in range(first, len(positional)):
            yield node.name, positional[k].arg, k
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _calls(trees=TREES):
    """name -> [(positional count, keyword names, open-ended)] for every call
    across the given trees.  A call that takes a function as its first
    argument, such as ``rec.call(f, x, y)``, also counts as a call of ``f``
    with the rest; ``*args`` or ``**kwargs`` make a call open-ended."""
    calls = {}

    def record(func, args, keywords):
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            return
        starred = any(isinstance(a, ast.Starred) for a in args)
        names = {kw.arg for kw in keywords}
        open_ended = starred or None in names
        calls.setdefault(name, []).append((len(args), names, open_ended))

    for tree_name in trees:
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    record(node.func, node.args, node.keywords)
                    if node.args:
                        record(node.args[0], node.args[1:], node.keywords)
    return calls


def test_every_default_is_passed_somewhere():
    calls = _calls()
    unpassed = []
    for path in sorted((ROOT / "src" / "twbraid").glob("*.py")):
        for func, param, position in _defaulted_parameters(_parse(path)):
            passed = any(
                open_ended
                or param in names
                or (position is not None and count > position)
                for count, names, open_ended in calls.get(func, ())
            )
            if not passed:
                unpassed.append(f"{path.name}:{func}({param})")
    assert not unpassed, f"defaults that no call overrides: {unpassed}"


def test_no_private_default_serves_only_tests():
    calls = _calls(PROGRAM_TREES)
    test_only = []
    for path in sorted((ROOT / "src" / "twbraid").glob("*.py")):
        for func, param, position in _defaulted_parameters(_parse(path)):
            if not func.startswith("_"):
                continue  # a public default is API
            left_out = any(
                not open_ended
                and param not in names
                and (position is None or count <= position)
                for count, names, open_ended in calls.get(func, ())
            )
            if not left_out:
                test_only.append(f"{path.name}:{func}({param})")
    assert not test_only, f"private defaults no program call uses: {test_only}"
