"""No name in `src/sqlrerank` that only tests reach.

Every top-level function or class of a package module, and every public
method of such a class, is named somewhere besides its own definition: in
another part of the package (`__init__.py` aside), in `bench/` (the strings
of `spans.TARGETS` included), or in `sqlrerank.__all__`. A helper only
tests use belongs in `tests/refimpl.py`.
"""
import ast
from collections import Counter
from pathlib import Path

import sqlrerank

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sqlrerank"
BENCH = ROOT / "bench"


def _names(tree: ast.AST) -> list[tuple[bool, str]]:
    """(is_attribute, identifier) for every identifier that `tree` reads or
    imports, with repeats. A method is reached only as an attribute, so a
    local variable that shares its name does not count for it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((False, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((True, node.attr))
        elif isinstance(node, ast.alias):
            found.append((False, node.name.rpartition(".")[2]))
    return found


def _definitions(tree: ast.Module):
    """(is_method, name, node) for each top-level function or class, and
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield False, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                is_method = isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_method and not member.name.startswith("_"):
                    yield True, member.name, member


def _target_strings() -> set[str]:
    tree = ast.parse((BENCH / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return {
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    raise AssertionError("bench/spans.py has no TARGETS")


def test_every_package_name_is_used_outside_the_tests():
    modules = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    in_package = Counter(n for tree in modules.values() for n in _names(tree))
    outside = set(sqlrerank.__all__) | _target_strings()
    for path in sorted(BENCH.glob("*.py")):
        outside.update(name for _, name in _names(ast.parse(path.read_text(encoding="utf-8"))))

    def uses(names: Counter, is_method: bool, name: str) -> int:
        return names[(True, name)] + (0 if is_method else names[(False, name)])

    unused = []
    for path, tree in modules.items():
        for is_method, name, node in _definitions(tree):
            own = Counter(_names(node))
            elsewhere = uses(in_package, is_method, name) - uses(own, is_method, name)
            if name not in outside and elsewhere == 0:
                unused.append(f"{path.stem}.{name}")
    assert unused == [], f"named only by tests (or by nothing): {', '.join(unused)}"
