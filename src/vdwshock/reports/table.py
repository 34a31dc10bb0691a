"""The ``table`` command's renderer: the threshold grid beside the stored fixture."""

from __future__ import annotations

import math

from .. import regular_reflection
from ..config import RunConfig
from ..table_fixture import fixture_column, fixture_row
from . import _csv, _fmt_float


def render_table(cfg: RunConfig) -> str:
    """Threshold grid with a side-by-side fixture-comparison column as CSV.

    Each quantity is computed where it varies: per btilde column the
    threshold kernel's constants (regular_reflection._threshold_columns), the
    fixture column and the cell templates; per beta row the fixture row, one
    call of the row kernel _threshold_row, whose entry is None for an
    inadmissible cell and holds J and phi* of an admissible one, and one %
    call.  cfg comes from parse_config, or is RunConfig(), so every column's
    gas is valid and the btilde grid is not empty.
    """
    g = cfg.gamma
    # looked up once per call, not at import, so a wrapper patched onto the module is seen and
    # a command that renders no table does not load the threshold modules
    row_kernel, degrees = regular_reflection._threshold_row, math.degrees
    kernel_columns = regular_reflection._threshold_columns(g, cfg.btilde_grid)
    columns = []
    for bt in cfg.btilde_grid:
        bt_cell = f"{_fmt_float(bt)},"
        admitted = bt_cell + "true,%.12g,%.12g,,"  # an admissible cell with no fixture value
        columns.append((bt_cell, fixture_column(bt), admitted))
    lines = []
    for beta in cfg.beta_grid:
        head = _fmt_float(beta) + ","
        fix_row = fixture_row(beta)
        cells = []
        values = []
        for (bt_cell, col, admitted), cell in zip(columns, row_kernel(beta, g, kernel_columns)):
            fix = None if fix_row is None or col is None else fix_row[col]
            fix_cell = "" if fix is None else _fmt_float(fix)
            if cell is None:
                cells.append(f"{bt_cell}false,,,{fix_cell},")
                continue
            j, phi = cell[7], cell[8]
            # J (clamped to +0.0 when not > 0), phi_star_deg = degrees(atan(sqrt(J))) and
            # abs_diff = abs(.) are never -0.0, so "%.12g" prints them as _fmt_float does;
            # no cell holds a "%"
            if fix is None:
                cells.append(admitted)
                values += j, degrees(phi)
            else:
                cells.append(f"{bt_cell}true,%.12g,%.12g,{fix_cell},%.12g")
                values += j, degrees(phi), abs(j - fix)
        lines.append((head + ("\n" + head).join(cells)) % tuple(values))
    header = ["beta_i", "btilde", "admissible", "J", "phi_star_deg", "fixture_J", "abs_diff"]
    return _csv(header, lines)
