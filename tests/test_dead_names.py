"""Every function, class and method of the package has a user.

A name counts as used when the package refers to it (as a name or an
attribute) anywhere outside its own definition and ``__init__.py``.  Names
are matched as strings, so a same-named local or attribute also counts.  Dunder
methods are called by Python itself and are not checked.  A name kept for a
user outside the package is listed in ``KEPT`` with that user.

Every name a module imports is used in that module, except in
``__init__.py``, whose imports are the package's public API.  An import
kept for a user elsewhere is marked ``# noqa: F401`` followed by why.
"""

import ast
import pathlib
import re
from collections import Counter

import fedsynth

PACKAGE = pathlib.Path(fedsynth.__file__).parent

KEPT = {
    "share": "perfbench traces secagg.share by name; the tests' reference for secret sharing",
    "logits": "perfbench's fit counter asks `comp in warm.logits`",
    "exponential_probabilities": "the tests' closed-form reference for the exponential mechanism",
    "heterogeneity_report": "the public analysis API the acceptance criteria use",
    "aggregate": "HeterogeneityReport's summary, part of the heterogeneity_report API",
}


def _references(node: ast.AST) -> Counter:
    """How often each name is referred to inside ``node``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _definitions():
    """(qualified name, definition node) of every top-level function and
    class and every non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{method.name}", method


def _unused() -> dict[str, str]:
    """Qualified name -> name of every definition the package never uses."""
    used = Counter()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used += _references(ast.parse(path.read_text()))
    return {
        qualified: node.name
        for qualified, node in _definitions()
        if used[node.name] == _references(node)[node.name]
    }


def test_every_package_name_has_a_user():
    unused = _unused()
    dead = sorted(q for q, name in unused.items() if name not in KEPT)
    assert not dead, f"defined but never used in the package: {dead}"
    stale = sorted(set(KEPT) - set(unused.values()))
    assert not stale, f"kept names that are used in the package or gone: {stale}"


_NOQA = re.compile(r"#\s*noqa:\s*F401\b(.*)$")


def _unused_imports(path: pathlib.Path) -> list[str]:
    """``module:line name`` of every import of ``path`` never used there."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _references(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = _NOQA.search(lines[node.end_lineno - 1])
        if marked:
            assert marked.group(1).strip(" ()-:"), f"{path.name}:{node.lineno}: a noqa: F401 must say why"
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if not used[bound]:
                unused.append(f"{path.stem}:{node.lineno} {bound}")
    return unused


def test_every_import_is_used():
    unused = [
        name for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
        for name in _unused_imports(path)
    ]
    assert not unused, f"imported but never used: {unused}"
