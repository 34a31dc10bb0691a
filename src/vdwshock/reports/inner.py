"""The ``inner`` command's renderer: the inner-region loci and fields on a (theta', r') grid."""

from __future__ import annotations

import math

from .. import inner_singular
from ..config import RunConfig
from ..errors import DomainError
from ..thermo import _reference_state
from . import _csv, _fmt_float, _linspace


def render_inner(cfg: RunConfig) -> str:
    """Inner-region loci and piecewise fields over a (theta', r') grid as CSV.

    S_D uses the configured boundary label eta; the pointwise diffracted
    solution uses each point's own eta and is blank where undefined.  Each
    value is computed where it varies (grid, r' column, theta' row, cell).
    cfg comes from parse_config, or is RunConfig().
    """
    ref = _reference_state(cfg.gamma, cfg.btilde, cfg.rho0, cfg.p0)
    geom = inner_singular._inner_geometry(cfg.gamma, cfg.btilde, ref, cfg.theta0)
    sonic = f"{_fmt_float(geom.sonic_S)},{_fmt_float(geom.sonic_R)}"
    rps = _linspace(cfg.rprime_min, cfg.rprime_max, cfg.rprime_count)
    if not all(map(math.isfinite, rps)):
        raise DomainError(
            f"r' grid overflows: rprime_min={cfg.rprime_min}, rprime_max={cfg.rprime_max}")
    tps = _linspace(cfg.thetaprime_min, cfg.thetaprime_max, cfg.thetaprime_count)
    if not all(map(math.isfinite, tps)):
        raise DomainError(f"theta' grid overflows: thetaprime_min={cfg.thetaprime_min}, "
                          f"thetaprime_max={cfg.thetaprime_max}")
    columns = [(rp, _fmt_float(rp)) for rp in rps]
    lift_d = inner_singular._lift(cfg.eta) if cfg.eta < 0.0 else None
    lines = []
    for tp in tps:
        s_r = inner_singular.reflected_shock_locus(tp, geom)
        denom = geom.kappa0 * tp * tp
        # S_R or a sonic line overflows, or theta'^2 underflows and eta with it
        if not (math.isfinite(s_r) and math.isfinite(geom.sonic_R)) or (denom == 0.0 and tp != 0.0):
            raise DomainError(
                f"inner grid leaves the float range at theta_prime={tp} (gamma={cfg.gamma}, "
                f"btilde={cfg.btilde}, theta0={cfg.theta0}, thetaprime_min={cfg.thetaprime_min}, "
                f"thetaprime_max={cfg.thetaprime_max})")
        s_d = "" if lift_d is None else _fmt_float(
            inner_singular._diffracted_locus(inner_singular._parabola(tp, geom), lift_d, geom))
        head, tail = f"{_fmt_float(tp)},", f",{_fmt_float(s_r)},{s_d},{sonic},"
        for rp, rp_cell in columns:
            u_ref = "1" if rp > s_r else "2"  # 1 beyond the reflected shock, 2 behind it
            u_dif = ""
            if tp != 0.0:
                eta = 2.0 * rp / denom
                # eta < 0 (not rp < 0: eta can underflow to -0.0) means r' < 0 < S_D =
                # parabola + vartheta*(1 + lift/2): always behind the diffracted shock
                if eta < 0.0:
                    u_dif = _fmt_float(1.0 + inner_singular._lift(eta))
            lines.append(f"{head}{rp_cell}{tail}{u_ref},{u_dif}")
    header = ["theta_prime", "r_prime", "S_R", "S_D", "sonic_S", "sonic_R",
              "U_reflected", "U_diffracted"]
    return _csv(header, lines)
