"""Deterministic renderers for the batch commands (CSV and JSON payloads)."""

from __future__ import annotations

import json
import math

from . import inner_singular, linear_acoustics, nonlinear_front, regular_reflection
from .config import RunConfig
from .errors import DomainError, InternalInconsistencyError
from .table_fixture import fixture_column, fixture_row
from .thermo import _a0_kappa0, _reference_state

_SCALARS = frozenset((type(None), bool, int, float, str))  # the value types of a flat object
DATA_COMMANDS = ("criterion", "table", "field", "front", "inner")  # each has its render_<command>


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
    beta_i = cfg.resolved_beta_i()
    rep = regular_reflection._criterion(beta_i, cfg.gamma, cfg.btilde)
    cubic = rep.cubic._asdict() if rep.cubic else dict.fromkeys(regular_reflection.CubicForm._fields)
    payload = {
        "beta_i": beta_i,
        "gamma": cfg.gamma,
        "btilde": cfg.btilde,
        "admissible": rep.admissible,
        "upper_beta": rep.upper_beta,
        **cubic,
        "x_star": rep.x_star,
        "J": rep.J,
        "phi_star_rad": rep.phi_star,
        "phi_star_deg": math.degrees(rep.phi_star) if rep.phi_star is not None else None,
    }
    return json_text(payload)


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
