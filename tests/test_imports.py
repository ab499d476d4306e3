"""Every name a genphase module, test or demo imports at the top level is
used in it, every top-level function, class and constant of a genphase
module is used somewhere, and importing the package loads no scipy module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "genphase").glob("*.py") if p.name != "__init__.py")
SCRIPTS = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported_names(tree)) - used
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def _defined_names(tree):
    """The module-level functions, classes and constants a module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _read_names(tree):
    """The names read in a file: loaded variables and attributes.  A
    definition, an assignment target or an import reads nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_dead_definition():
    # src, tests, demos and the benchmark harness all count as users
    files = [p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")]
    read = {name for p in files for name in _read_names(ast.parse(p.read_text()))}
    dead = {p.name: names for p in MODULES
            if (names := sorted(set(_defined_names(ast.parse(p.read_text()))) - read))}
    assert not dead, f"defined but never used: {dead}"


def test_package_imports_no_scipy():
    # a fresh interpreter, since this one may have loaded scipy for a test;
    # scipy.stats alone costs most of a second at every import
    code = ("import sys, genphase, genphase.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.strip() == "[]"
