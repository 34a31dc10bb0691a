"""The ``field`` command's renderer: the linearized density on a (xi/kappa0, theta) grid."""

from __future__ import annotations

import math

from .. import linear_acoustics
from ..config import RunConfig
from ..thermo import _reference_state
from . import _csv, _fmt_float, _linspace


def render_field(cfg: RunConfig) -> str:
    """Density on the (xi/kappa0, theta) grid as CSV, for a cfg from parse_config or RunConfig()."""
    ref = _reference_state(cfg.gamma, cfg.btilde, cfg.rho0, cfg.p0)
    sigmas = _linspace(cfg.xi_min, 1.0, cfg.xi_count)
    thetas = _linspace(cfg.alpha, math.pi, cfg.theta_count)
    degrees = [_fmt_float(math.degrees(theta)) for theta in thetas]
    lines = []
    templates = {}  # (tag, regions) -> the row's columns as %-templates
    rows = linear_acoustics.density_rows(sigmas, thetas, cfg.alpha, ref)
    for sigma, (tag, regions, rhos) in zip(sigmas, rows):
        head = _fmt_float(sigma)
        # rho1 is >= 1 or arc + c*ring with arc 1 or 2: never -0.0, so no "-0" guard;
        # "%.12g" is the formatter of f"{rho1:.12g}", and no head, angle or region holds a "%"
        cols = templates.get((tag, regions))
        if cols is None:
            cols = templates[tag, regions] = [f",{deg},{region},%.12g,{tag}"
                                              for deg, region in zip(degrees, regions)]
        lines.append((head + ("\n" + head).join(cols)) % tuple(rhos))
    header = ["xi_over_kappa0", "theta", "region", "rho1", "formula_tag"]
    return _csv(header, lines)
