"""Every name a package module imports is read somewhere in that module,
every private function and class is referenced somewhere in the package,
and `import spetscat` loads only the modules the checks use.

An AST scan of `src/spetscat/*.py`: a name bound by `import` or
`from ... import` must appear as a loaded name, unless the module lists it
in `__all__` (a re-export).  `__init__.py` exists to re-export, and
`from __future__ import annotations` binds nothing a reader uses, so both
are skipped.

A second scan reads every module of the package: a function, method or
class whose name starts with one underscore (dunders aside) must be read,
as a name or an attribute, outside its own body.  A helper only the tests
call belongs in the tests.

The import footprint is read from a fresh interpreter, since this one has
loaded every module already.
"""
import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import spetscat

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


def _reads(node: ast.AST) -> Counter:
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """`module:line: name` for each private function or class in the
    modules `sources` (name -> source) that no module reads outside the
    definition's own body."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.endswith("__")
                and reads[node.name] == _reads(node)[node.name]
            ):
                dead.append(f"{module}:{node.lineno}: {node.name}")
    return sorted(dead)


def test_private_scan_finds_a_dead_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead(k):\n    return _dead(k - 1)\n",
        "b.py": "from a import _used\n_used()\n\nclass _Box:\n    def __init__(self):\n        pass\n",
    }
    assert unreferenced_private_defs(sources) == ["a.py:4: _dead", "b.py:4: _Box"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


EAGER = ["catalan", "degrees", "exactnum", "fourier", "groups", "labels", "symbols"]
LAZY = {
    "GeneratorMatrices": "tableaux",
    "build_model": "tableaux",
    "reflection_character_sum": "tableaux",
    "standard_tableaux": "tableaux",
    "FiniteGroup": "chartable",
    "character_table": "chartable",
    "nonabelian_fourier": "chartable",
    "NonabelianFourier": "chartable",
}


def _fresh(code: str):
    """The JSON that `code` prints, run in a fresh interpreter on ./src."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_import_loads_only_the_check_modules():
    loaded, catalan_is_function = _fresh(
        "import json, sys, spetscat\n"
        "mods = sorted(n.partition('.')[2] for n in sys.modules if n.startswith('spetscat.'))\n"
        "print(json.dumps([mods, spetscat.catalan is sys.modules['spetscat.catalan'].catalan]))"
    )
    assert loaded == EAGER
    assert catalan_is_function


def test_lazy_names_are_their_modules_objects():
    same, catalan_is_function = _fresh(
        "import importlib, json, sys, spetscat\n"
        f"lazy = {LAZY!r}\n"
        "same = {n: getattr(spetscat, n) is getattr(importlib.import_module('spetscat.' + m), n)"
        " for n, m in lazy.items()}\n"
        "print(json.dumps([same, spetscat.catalan is sys.modules['spetscat.catalan'].catalan]))"
    )
    assert same == dict.fromkeys(LAZY, True)
    assert catalan_is_function


def test_star_import_binds_lazy_names():
    bound = _fresh(
        "import json\n"
        "from spetscat import *\n"
        f"print(json.dumps([n in globals() for n in {sorted(LAZY)!r}]))"
    )
    assert bound == [True] * len(LAZY)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        spetscat.no_such_name
