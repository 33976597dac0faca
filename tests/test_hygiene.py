"""Source hygiene, read from the syntax trees: no module in src/ or tests/
imports a name it never uses, every module-level function and class in
src/ is referenced from src/, tests/ or bench/, and no code in src/
decides an identity by comparing `.name` attributes."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _modules(*dirs) -> dict:
    return {path: ast.parse(path.read_text())
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))}


def _names(node):
    """The names a node reads: bare names, attributes and imported aliases."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def test_no_unused_imports():
    unused = []
    for path, tree in _modules("src", "tests").items():
        if path.name == "__init__.py":
            continue   # a package's __init__ re-exports what it imports
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    assert unused == []


def test_every_src_definition_is_referenced():
    modules = _modules("src", "tests", "bench")
    readers: dict = {}
    for path, tree in modules.items():
        for i, top in enumerate(tree.body):
            for name in _names(top):
                readers.setdefault(name, set()).add((path, i))
    unreferenced = [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path, tree in modules.items() if (ROOT / "src") in path.parents
        for i, node in enumerate(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        # a definition's own body does not count as a reference to it
        and not readers.get(node.name, set()) - {(path, i)}
    ]
    assert unreferenced == []


def test_no_name_comparisons_in_src():
    """Problems are identified by their keys; a name is only displayed."""
    compared = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _modules("src").items()
        for node in ast.walk(tree) if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        and any(isinstance(side, ast.Attribute) and side.attr == "name"
                for side in [node.left, *node.comparators])
    ]
    assert compared == []
