"""Every name a package module imports is read somewhere in that module.

An AST scan of `src/spetscat/*.py`: a name bound by `import` or
`from ... import` must appear as a loaded name, unless the module lists it
in `__all__` (a re-export).  `__init__.py` exists to re-export, and
`from __future__ import annotations` binds nothing a reader uses, so both
are skipped.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spetscat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _all_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    exported = _all_names(tree)
    return sorted(
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in read and name not in exported
    )


def test_scan_finds_an_unused_import():
    source = "from math import comb, gcd\nimport os\nprint(gcd(4, 6))\n"
    assert unused_imports(source) == ["line 1: comb", "line 2: os"]


def test_scan_accepts_reexports_and_future():
    source = (
        "from __future__ import annotations\n"
        "from math import comb\n"
        '__all__ = ["comb"]\n'
    )
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
