"""Deterministic renderers for the batch commands (CSV and JSON payloads).

This module holds the shared formatting, ``DATA_COMMANDS`` and
``render_criterion``.  Each other data command's renderer
``render_<command>`` lives in the module ``reports.<command>``, which is
imported on first lookup of the name here (PEP 562), under the import lock,
so a command compiles only its own renderer.  ``import vdwshock.reports``
runs only config and what config imports: no renderer, fixture or command
kernel module.
"""

from __future__ import annotations

import json
import math
from importlib import import_module

from ..config import RunConfig
from ..errors import InternalInconsistencyError

_SCALARS = frozenset((type(None), bool, int, float, str))  # the value types of a flat object
DATA_COMMANDS = ("criterion", "table", "field", "front", "inner")  # each has its render_<command>
#: renderer -> the module of this package that defines it
_RENDERERS = {f"render_{command}": command for command in ("table", "field", "front", "inner")}


def __getattr__(name: str):
    if name not in _RENDERERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here once resolved, so a later lookup does not reach this function
    value = globals()[name] = getattr(import_module(f"{__name__}.{_RENDERERS[name]}"), name)
    return value


def fmt(value) -> str:
    """CSV cell formatting: 12 significant digits, empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    return _fmt_float(float(value))


def _fmt_float(value: float) -> str:
    """fmt for a value known to be a float, without the type dispatch."""
    s = format(value, ".12g")
    return "0" if s == "-0" else s


def csv_text(header: list[str], rows: list[list]) -> str:
    return _csv(header, [",".join(fmt(cell) for cell in row) for row in rows])


def _csv(header: list[str], lines: list[str]) -> str:
    """CSV document from a header and already formatted data lines, joined in one copy."""
    return "\n".join([",".join(header), *lines, ""])


def json_text(payload) -> str:
    """Strict JSON: a NaN or infinity in the payload is an internal fault."""
    # json's C encoder runs only without indent; ",\n  " between items gives the indent=2 bytes
    if type(payload) is dict and payload and all(type(v) in _SCALARS for v in payload.values()):
        try:
            body = json.dumps(payload, sort_keys=True, allow_nan=False, separators=(",\n  ", ": "))
            return "{\n  " + body[1:-1] + "\n}\n"
        except ValueError:  # worded below by the encoder that names the value
            pass
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InternalInconsistencyError(f"non-finite value in JSON output: {exc}") from exc


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    step = (hi - lo) / (count - 1)  # parse_config keeps every grid count >= 2
    return [lo + step * i for i in range(count)]


def render_criterion(cfg: RunConfig) -> str:
    """Detachment-criterion report as JSON, for a cfg from parse_config or RunConfig()."""
    # imported here, so that importing this module runs no kernel
    from ..regular_reflection import _threshold_columns, _threshold_row
    from ..shock_relations import beta_upper

    beta_i, g, bt = cfg.resolved_beta_i(), cfg.gamma, cfg.btilde
    cell = _threshold_row(beta_i, g, _threshold_columns(g, (bt,)))[0]
    payload = dict(zip(("h0", "h1", "h2", "h3", "m", "n", "x_star", "J", "phi_star_rad"),
                       cell or (None,) * 9))
    payload.update(beta_i=beta_i, gamma=g, btilde=bt, admissible=cell is not None,
                   upper_beta=beta_upper(g, bt),
                   phi_star_deg=None if cell is None else math.degrees(cell[8]))
    return json_text(payload)

