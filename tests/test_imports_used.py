"""Every name a module imports is used in it.

No linter is installed, so this walks the syntax tree with the standard
``ast`` module.  A name counts as used when it appears as a name anywhere
in the module (attribute chains start with one) or is listed in the
module's ``__all__``.  ``from __future__`` imports bind nothing and are
skipped.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = (ROOT / "src" / "hydrokite", ROOT / "tests", ROOT / "bench")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported_names(tree).items() if name not in used]


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math, os.path\nfrom x import a, b as c\n"
                     "__all__ = ['a']\nos.sep\n")
    assert set(imported_names(tree)) - used_names(tree) == {"math", "c"}


def test_no_unused_imports():
    unused = [item for base in CHECKED for path in sorted(base.rglob("*.py"))
              for item in unused_imports(path)]
    assert unused == []
