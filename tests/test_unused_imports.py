"""No module-level import in the package's modules or in the tests goes unused.

A name is used when the module's syntax tree loads it anywhere; an
annotation counts.  ``__init__.py`` is checked too: the package re-exports
its public names through a module ``__getattr__``, not by import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "vdwshock").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "from math import pi, tau\nimport os.path\nimport sys\nprint(tau)\nsys = 1\n"
    assert unused_imports(source) == ["os", "pi", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
