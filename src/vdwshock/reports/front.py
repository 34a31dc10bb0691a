"""The ``front`` command's renderer: the front quantities over a covolume sweep."""

from __future__ import annotations

import math

from .. import nonlinear_front
from ..config import RunConfig
from ..errors import DomainError
from ..thermo import _a0_kappa0
from . import _csv, _linspace


def render_front(cfg: RunConfig) -> str:
    """Covolume sweep of the front quantities: gradient jump, locus per unit time, strength.

    cfg comes from parse_config, or is RunConfig().  Checked once, before the rows: beta_deg >
    alpha_deg, then the ray (c_beta, which gives C).  A row that leaves the float range raises.
    """
    alpha, beta_angle = cfg.alpha, cfg.beta_angle
    if beta_angle <= alpha:
        raise DomainError("front command needs beta_deg > alpha_deg (shock side of the sonic ray)")
    c_val = nonlinear_front.c_beta(beta_angle, alpha)
    g, top, rho0, eps = cfg.gamma, cfg.btilde_sweep_max, cfg.rho0, cfg.epsilon
    sweep = _linspace(0.0, top, cfg.btilde_sweep_count)
    if sweep[-1] >= 1.0:  # step*(count - 1) can round up to 1 below a top < 1
        sweep[-1] = top
    lines = []
    for bt in sweep:
        a0 = _a0_kappa0(g, bt, rho0, cfg.p0)[0]
        jump = nonlinear_front._gradient_jump(g, bt, cfg.r, rho0)
        try:
            q, strength = nonlinear_front._shock_terms(g, bt, eps, c_val)
        except DomainError:  # reported below with the sweep's own message
            q = strength = math.inf
        row = (bt, jump, a0 * (1.0 + q), strength)
        if not all(map(math.isfinite, row)):
            raise DomainError(f"front quantities overflow at btilde={bt} for gamma={g}, "
                              f"epsilon={eps} (r={cfg.r})")
        # no -0.0, so "%.12g" prints each cell as _fmt_float: bt is 0.0 + step*i or top, jump and
        # locus are positive factors, and in eps*eps*C*C*... (x*C)*C is >= +0.0 for x >= +0.0
        lines.append("%.12g,%.12g,%.12g,%.12g" % row)
    header = ["btilde", "gradient_jump", "shock_locus_coeff", "shock_strength"]
    return _csv(header, lines)
