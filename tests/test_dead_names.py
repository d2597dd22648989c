"""Every function, class and method of the package has a user.

A name counts as used when the package refers to it (as a name or an
attribute) anywhere outside its own definition and ``__init__.py``.  Names
are matched as strings, so a same-named local or attribute also counts.  Dunder
methods are called by Python itself and are not checked.  A name kept for a
user outside the package is listed in ``KEPT`` with that user.
"""

import ast
import pathlib
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
