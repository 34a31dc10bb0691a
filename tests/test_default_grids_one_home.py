"""The default threshold grids have one home: RunConfig's beta_grid and btilde_grid.

The stored fixture table (``table_fixture``) keys its rows and columns by
those defaults, so its axes are the same objects and no other source module
writes either grid out as a literal.  Every fixture cell keeps the value it
held when the fixture wrote its own axes: a digest of each cell's
``float.hex`` (``-`` for a blank cell) over the grid, in row order, pins it.
"""

import ast
import hashlib
from pathlib import Path

from vdwshock.config import RunConfig
from vdwshock.table_fixture import FIXTURE_BETA, FIXTURE_BTILDE, fixture_value

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vdwshock"
DEFAULT = RunConfig()
CELLS_DIGEST = "1060dccf701ea98da465a2dbc4cf6934ebaf2a4b2976a3077b523b9fa1eb7fb6"


def grid_literals(source):
    """Lines of the tuple and list literals in source that equal a default grid."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Tuple, ast.List)):
            try:
                value = tuple(ast.literal_eval(node))
            except (ValueError, TypeError):  # not a literal: it holds a name or a call
                continue
            if value in (DEFAULT.beta_grid, DEFAULT.btilde_grid):
                lines.append(node.lineno)
    return lines


def test_the_check_sees_a_literal():
    source = ("A = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 0.5, 0.7)\n"
              "B = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 0.5]\n"
              "C = dict(zip([1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0,\n"
              "              3.2, 3.4, 3.6, 3.8, 4.0], rows))\n"
              "D = (x, 0.02)\n")
    assert grid_literals(source) == [1, 3]


def test_fixture_axes_are_the_default_grids():
    assert FIXTURE_BETA is DEFAULT.beta_grid
    assert FIXTURE_BTILDE is DEFAULT.btilde_grid
    assert (len(FIXTURE_BETA), len(FIXTURE_BTILDE)) == (15, 9)


def test_only_config_writes_the_grids():
    found = {}
    for path in sorted(PACKAGE.glob("**/*.py")):
        lines = grid_literals(path.read_text(encoding="utf-8"))
        if lines:
            found[path.relative_to(PACKAGE).as_posix()] = len(lines)
    assert found == {"config.py": 2}


def test_every_fixture_cell_keeps_its_value():
    cells = [fixture_value(beta, bt) for beta in FIXTURE_BETA for bt in FIXTURE_BTILDE]
    text = " ".join("-" if value is None else value.hex() for value in cells)
    assert (len(cells), cells.count(None)) == (135, 34)
    assert hashlib.sha256(text.encode()).hexdigest() == CELLS_DIGEST
