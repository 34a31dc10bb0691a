"""No module-level import in the package's modules or in the tests goes unused.

The package's modules include those of its subpackage ``reports``.  A name
is used when the module's syntax tree loads it anywhere; an annotation
counts.  Each ``__init__.py`` is checked too: the package re-exports its
public names, and ``reports`` its renderers, through a module
``__getattr__``, not by import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vdwshock"
MODULES = sorted([*PACKAGE.glob("**/*.py"), *(ROOT / "tests").glob("*.py")])


def _module_id(path):
    """The file name, or the path below the package for a module of a subpackage."""
    return path.relative_to(PACKAGE).as_posix() if path.is_relative_to(PACKAGE) else path.name


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


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
