"""Source hygiene without a linter: every module-level import of a package
module is used in it, and every module-level private function is referenced
somewhere in the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "soficlab"


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def test_module_imports_are_used():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":  # re-exports the public names
            continue
        used = _names(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert not unused, unused


def test_private_functions_are_referenced():
    trees = _trees()
    referenced = set()
    for tree in trees.values():
        referenced |= _names(tree)
        referenced |= {n.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Attribute)}
    orphans = [f"{name}: {node.name}" for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in referenced]
    assert not orphans, orphans
