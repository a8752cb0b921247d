"""Source hygiene without a linter: every module-level import of a package
module is used in it, every module-level private function is referenced
somewhere in the package, and every public function, method and property
is referenced somewhere in the package, its tests or its demos."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "soficlab"

# methods that the standard library calls by name
_HOOKS = {"cli.py: _Parser.error"}


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _attributes(tree: ast.AST) -> set[str]:
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _referenced(tree: ast.AST) -> set[str]:
    """Names and attribute names the tree reads or writes."""
    return _names(tree) | _attributes(tree)


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
        referenced |= _referenced(tree)
    orphans = [f"{name}: {node.name}" for name, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_") and not node.name.startswith("__")
               and node.name not in referenced]
    assert not orphans, orphans


def test_public_functions_are_referenced():
    # a method counts only when some file reads it as an attribute: a bare
    # name of the same spelling (a local variable, say) does not call it
    names, attributes = set(), set()
    for top in ("src", "tests", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names |= _names(tree)
            attributes |= _attributes(tree)
    defined = []
    for name, tree in _trees().items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defined.append((f"{name}: {node.name}", node.name,
                                names | attributes))
            elif isinstance(node, ast.ClassDef):
                defined.extend((f"{name}: {node.name}.{m.name}", m.name,
                                attributes)
                               for m in node.body
                               if isinstance(m, ast.FunctionDef))
    orphans = [label for label, fn, referenced in defined
               if not fn.startswith("_") and fn not in referenced
               and label not in _HOOKS]
    assert not orphans, orphans
