"""Every defaulted parameter of the package has a caller that passes it.

A package function or method whose defaulted parameter no call inside the
package ever passes has a constant, not a parameter.  A call passes a
parameter by keyword, or by position past the arguments before it; a
``*args`` or ``**kwargs`` argument may pass any parameter it can reach.
Calls are matched by name, so a call of a same-named function also
counts.  A name bound by ``import ... as`` counts as the original,
``Class(...)`` calls ``Class.__init__``, and ``super().__init__(...)``
calls the nearest parent ``__init__`` defined in the package.  A
parameter kept for a user outside the package is listed in ``KEPT`` with
that user.
"""

import ast
import pathlib
from collections import defaultdict

import fedsynth

PACKAGE = pathlib.Path(fedsynth.__file__).parent

KEPT = {
    "privacy.gaussian_mechanism.sensitivity": "the neighbouring-relation work (ROADMAP item 3) scales noise with it",
    "cli.main.argv": "the tests drive the CLI through it",
    "secagg.share.parties": "the tests' reference for secret sharing",
    "secagg.share.ledger": "the tests' reference for secret sharing",
    "secagg.share.client": "the tests' reference for secret sharing",
    "secagg.share.round_index": "the tests' reference for secret sharing",
    "secagg.share.protocol": "the tests' reference for secret sharing",
}


class _Definition:
    def __init__(self, qualified: str, node: ast.FunctionDef, is_method: bool):
        self.qualified = qualified
        args = node.args
        skip = 1 if is_method and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        ) else 0
        self.positional = [a.arg for a in args.posonlyargs + args.args][skip:]
        first_default = len(self.positional) - len(args.defaults)
        self.defaulted = set(self.positional[first_default:])
        self.defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
        self.passed: set[str] = set()

    def record(self, call: ast.Call) -> None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                self.passed.update(self.positional[i:])
                break
            if i < len(self.positional):
                self.passed.add(self.positional[i])
        for keyword in call.keywords:
            if keyword.arg is None:  # **kwargs
                self.passed |= self.defaulted
            else:
                self.passed.add(keyword.arg)


def _parse():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees):
    """Name -> definitions (top-level functions, methods, and classes as
    their ``__init__``), and class name -> base class names."""
    by_name = defaultdict(list)
    bases = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                by_name[node.name].append(_Definition(f"{module}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
                for method in node.body:
                    if isinstance(method, ast.FunctionDef):
                        qualified = f"{module}.{node.name}.{method.name}"
                        definition = _Definition(qualified, method, True)
                        by_name[method.name].append(definition)
                        if method.name == "__init__":
                            by_name[node.name].append(definition)
    return by_name, bases


def _parent_init(cls: str, by_name, bases):
    """The nearest ``__init__`` defined in the package above ``cls``."""
    for base in bases.get(cls, []):
        own = [d for d in by_name.get(base, []) if d.qualified.endswith(f".{base}.__init__")]
        if own:
            return own
        found = _parent_init(base, by_name, bases)
        if found:
            return found
    return []


def _aliases(trees) -> dict[str, str]:
    return {
        alias.asname: alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_super_init(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and isinstance(func.value.func, ast.Name)
        and func.value.func.id == "super"
    )


def _unpassed() -> set[str]:
    """Qualified name of every defaulted parameter no call in the package passes."""
    trees = _parse()
    by_name, bases = _definitions(trees)
    aliases = _aliases(trees)
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                if _is_super_init(node):
                    targets = _parent_init(top.name, by_name, bases)
                else:
                    name = _callee(node)
                    targets = by_name.get(aliases.get(name, name), [])
                for definition in targets:
                    definition.record(node)
    return {
        f"{d.qualified}.{param}"
        for definitions in by_name.values()
        for d in definitions
        for param in sorted(d.defaulted - d.passed)
    }


def test_every_defaulted_parameter_has_a_caller():
    unpassed = _unpassed()
    dead = sorted(unpassed - set(KEPT))
    assert not dead, f"defaulted parameters no call in the package passes: {dead}"
    stale = sorted(set(KEPT) - unpassed)
    assert not stale, f"kept parameters that the package passes or that are gone: {stale}"
