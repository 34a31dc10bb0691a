"""Release-gate verification checks and the machine-readable report.

Each check mirrors one acceptance criterion at its stated tolerance; the
fixture comparison is emitted as a non-gating report entry.  The trends check
is expected to fail honestly: the threshold computed from the printed cubic
is not strictly increasing in the density ratio at the top of the ideal-gas
column (the stored fixture shows the same dip), and that failure propagates
into the exit-code clause of the determinism check.  Neither is masked.
"""

from __future__ import annotations

import math
import random
from itertools import pairwise
from typing import NamedTuple

from . import inner_singular, linear_acoustics, nonlinear_front
from .config import RunConfig
from .errors import DomainError, InternalInconsistencyError
from .geometry import reflected_line
from .linear_acoustics import atan_zero_pi, density_rows
from .regular_reflection import (
    solve_regular_reflection,
    tan_phi_r_branches,
    _beta_r_of,
    _bisection_root,
    _coeffs,
    _f_terms,
    _threshold_columns,
    _threshold_row,
)
from .shock_relations import IncidentShockInput, beta_upper, check_incident_beta
from .table_fixture import fixture_value
from .thermo import GasModel, reference_constants, validate_gas

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "discrepancy-documented"

_SEED = 20260811
#: points of the scan oracle's grid on [-bound, 0]
_SCAN_POINTS = 1500
#: brackets the scan oracle starts below the wedge quadratic's least root
_MARGIN = 2


class CheckResult(NamedTuple):
    name: str
    status: str
    residual: float | None
    tolerance: float | None
    note: str


def _result(name, residual, tolerance, note, *clauses) -> CheckResult:
    """The check's entry: PASS exactly when residual <= tolerance and every clause holds.

    The one home of a verdict, so no entry passes with a residual above its
    printed tolerance.  A None, NaN or infinite residual fails the check and
    is reported as null.
    """
    if residual is None or not math.isfinite(residual):
        return CheckResult(name, FAIL, None, tolerance, note)
    status = PASS if residual <= tolerance and all(clauses) else FAIL
    return CheckResult(name, status, residual, tolerance, note)


def _fold(worst: float, *values: float) -> float:
    """max(worst, *values), but a NaN among them wins and stays: max and a bare > drop it.

    The one home of this test: each check collects its values and folds them once.
    """
    for x in values:
        if x > worst or x != x:
            worst = x
    return worst


def _cubic_cells():
    """(x_c, x_b, scaled residual, coefficient-sum error) of each admissible cell.

    The grid is three gammas, 29 density ratios and 15 btildes.  Each gas is
    validated once.  Each row's entries, admission and the roots x_c that
    criterion and table print, come from one call of the row kernel
    _threshold_row.  The residual |F(x_c)|/(h3 x_c^3), the bisection root
    x_b and the coefficient sum h0 + h1 + h2 + h3, which must equal
    _f_terms' F(beta, 0), take the reference cubic from _coeffs, not from the
    entry: a kernel with a wrong h-expression would pass against its own.
    """
    betas = [1.1 + 0.1 * i for i in range(29)]
    btildes = [0.05 * i for i in range(15)]
    for g in (1.1, 1.4, 5.0 / 3.0):
        for bt in btildes:
            validate_gas(GasModel(g, bt))
        columns = _threshold_columns(g, btildes)
        for beta in betas:
            for bt, cell in zip(btildes, _threshold_row(beta, g, columns)):
                if cell is None:
                    continue
                x_c = cell[6]
                cubic = _coeffs(beta, g, bt)
                h0, h1, h2, h3, _m, _n = cubic
                x_b = _bisection_root(cubic)
                term1, term2 = _f_terms(beta, 0.0, g, bt)
                f0 = term1 - term2
                yield (x_c, x_b, abs(((h3 * x_c + h2) * x_c + h1) * x_c + h0) / (h3 * x_c ** 3),
                       abs(h0 + h1 + h2 + h3 - f0) / abs(f0))


def check_cubic_self_consistency() -> CheckResult:
    """Residual of the kernel's root, its bisection agreement, coefficient-sum identity."""
    cells = list(_cubic_cells())
    worst_root = _fold(0.0, *(abs(x_c - x_b) for x_c, x_b, _res, _sum in cells))
    worst_res = _fold(0.0, *(cell[2] for cell in cells))
    worst_sum = _fold(0.0, *(cell[3] for cell in cells))
    note = (
        f"{len(cells)} admissible cells; max |F(x*)|/(h3 x*^3)={worst_res:.3e}, "
        f"max root disagreement={worst_root:.3e}, max coefficient-sum error={worst_sum:.3e}"
    )
    return _result("cubic_self_consistency", _fold(worst_res, worst_root, worst_sum), 1e-9, note,
                   worst_root <= 1e-10, worst_sum <= 1e-12)


def _dips(points, dip) -> list[tuple]:
    """Key pairs of consecutive (key, value) points whose values satisfy dip(prev, cur)."""
    return [(k0, k1) for (k0, v0), (k1, v1) in pairwise(points) if dip(v0, v1)]


def check_table_trends() -> CheckResult:
    """Blank pattern of the default table against the fixture plus strict grid monotonicity."""
    cfg = RunConfig()
    grid = _default_table(cfg)
    blank_mismatch = [(beta, bt) for beta in cfg.beta_grid for bt in cfg.btilde_grid
                      if (grid[(beta, bt)] is None) != (fixture_value(beta, bt) is None)]

    def line(cells):  # (key, J) of the admissible (key, cell) pairs
        return [(key, grid[cell][7]) for key, cell in cells if grid[cell] is not None]

    def no_rise(prev, cur):  # a NaN compares false and is no dip
        return cur <= prev

    col_viol = [(b0, b1, bt) for bt in cfg.btilde_grid for b0, b1 in
                _dips(line((b, (b, bt)) for b in cfg.beta_grid), no_rise)]
    row_viol = [(beta, bt0, bt1) for beta in cfg.beta_grid for bt0, bt1 in
                _dips(line((bt, (beta, bt)) for bt in cfg.btilde_grid), no_rise)]
    violations = len(col_viol) + len(row_viol) + len(blank_mismatch)
    if not violations:
        note = "blank pattern matches fixture; rows and columns strictly monotone"
    else:
        note = (
            f"blank mismatches: {blank_mismatch or 'none'}; "
            f"column (beta-direction) violations: {col_viol or 'none'}; "
            f"row (btilde-direction) violations: {row_viol or 'none'}. "
            "The beta-direction dip at the top of the btilde=0 column is a property "
            "of the printed cubic itself (the stored fixture dips at the same corner); "
            "it is reported, not patched."
        )
    return _result("table_trends", float(violations), 0.0, note)


def check_table_fixture_comparison() -> CheckResult:
    """Absolute-value comparison of the default table against the stored fixture (non-gating)."""
    diffs = [abs(cell[7] - fix) for (beta, bt), cell in _default_table(RunConfig()).items()
             if cell is not None and (fix := fixture_value(beta, bt)) is not None]
    worst = _fold(0.0, *diffs)
    return CheckResult(
        "table_fixture_comparison", DOCUMENTED, worst, None,
        f"max |J - fixture| = {worst:.4f} over {len(diffs)} populated cells; the fixture's "
        "producing formula/parameters are unstated and do not match the printed "
        "cubic at any gamma, so only the blank pattern is gated",
    )


def check_branch_limits() -> CheckResult:
    """Vanishing-strength limits of the two reflected-angle branches."""
    beta = 1.0 + 1e-8
    worst = 0.0
    for gas in (GasModel(1.4, 0.0), GasModel(1.4, 0.3)):
        for deg in (15.0, 30.0, 45.0, 60.0):
            t = math.tan(math.radians(deg))
            minus, plus, _ = tan_phi_r_branches(beta, t, gas)
            worst = _fold(worst, abs(minus + t), abs(plus))
    note = f"max branch-limit deviation {worst:.3e} at beta_i = 1 + 1e-8"
    return _result("branch_limits", worst, 1e-6, note)


def _scan_oracle_minus_branch(beta: float, t: float, gas: GasModel) -> float:
    """Most negative root of the wedge condition by dense scan plus bisection.

    Composes the reflected ratio with the deflection relation directly, so it
    is independent of both the discriminant formula and the printed deflection
    elimination.  The inputs are validated once; the scan then calls the
    unchecked reflected-ratio kernel; gfun is NaN at its poles (DomainError),
    so a NaN grid value shows no sign change, and a bisection that lands on a
    pole ends at its bracket's top and rejects it unless |gfun| < 1e-8 there.

    The scan runs upward to 0, so its sign-change brackets are disjoint and
    ascending, and bisection never leaves its bracket.  The first bracket
    whose root passes the pole-rejection test therefore holds the least
    root, and the scan stops there: later brackets (the plus branch among
    them) are neither bisected nor evaluated.

    The scan also starts late: _MARGIN brackets below the least root of the
    quadratic factor of the cleared wedge condition.  It starts at -bound
    when that root is not a float in (-bound, 0]: when the quadratic has no
    real root, or when t <= 0, where its roots are positive.  The result is
    the one the scan from -bound gives, bit for bit.  An accepted root has
    |gfun| < 1e-8 in a sign-change bracket without a pole, so it is a zero
    of the cleared condition, which is (beta*t - r) times the quadratic;
    with t > 0 its zeros in [-bound, 0] are the quadratic's roots.  No
    skipped bracket therefore holds an accepted root, and skipped pole
    brackets are rejected anyway.  From the start on, every grid point is
    the same float expression, so the same first bracket gets the same
    bisection.

    Near grazing the two roots can share one bracket, which then shows no
    sign change; with no accepted root the scan raises
    InternalInconsistencyError.
    """
    check_incident_beta(beta, gas)
    g, bt = gas.gamma, gas.btilde
    tan_di = (beta - 1.0) * t / (1.0 + beta * t * t)
    beta_r = _beta_r_of(beta, t, g, bt)

    def gfun(r):
        try:
            br = beta_r(r)
        except DomainError:
            return math.nan
        return tan_di + (br - 1.0) * r / (1.0 + br * r * r)

    x = 1.0 + beta * t * t
    a_coef = (g + 1.0 - 2.0 * bt) * beta - (g - 1.0)
    qa = x * a_coef
    qb = 2.0 * t * (1.0 - bt * beta) * (1.0 + beta * beta * t * t)
    qc = (beta - 1.0) * ((g - 1.0 + 2.0 * bt * beta) * beta * t * t + (g + 1.0))
    bound = 1.0 + (abs(qb) + abs(qc)) / qa  # Cauchy bound on the quadratic roots
    n = _SCAN_POINTS
    start = 1
    disc = qb * qb - 4.0 * qa * qc
    if disc >= 0.0:
        hint = (-qb - math.sqrt(disc)) / (2.0 * qa)  # t > 0: qa, qb > 0, no cancellation
        if -bound < hint <= 0.0:  # false for t <= 0, an infinity or a nan
            start = max(1, int((hint + bound) / bound * n) - _MARGIN)
    prev_r = -bound + bound * (start - 1) / n
    prev_g = gfun(prev_r)
    for i in range(start, n + 1):
        r = -bound + bound * i / n  # scan up to 0
        cur_g = gfun(r)
        if math.isfinite(prev_g) and prev_g * cur_g <= 0.0 and prev_g != cur_g:
            lo, hi = prev_r, r
            glo = prev_g
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                gm = gfun(mid)
                if glo * gm <= 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            root = 0.5 * (lo + hi)
            if abs(gfun(root)) < 1e-8:  # reject pole crossings
                return root
        prev_r, prev_g = r, cur_g
    raise InternalInconsistencyError("scan oracle found no root")


def check_reflection_solve() -> CheckResult:
    """Random regular-reflection solves against the dense-scan oracle."""
    rng = random.Random(_SEED)
    cancels, devs = [], []
    attempts = 0
    while len(devs) < 200 and attempts < 2000:
        attempts += 1
        g = rng.uniform(1.1, 5.0 / 3.0)
        bt = rng.uniform(0.0, 0.7)
        gas = GasModel(g, bt)
        beta = rng.uniform(1.0 + 1e-3, min(beta_upper(g, bt) * 0.999, 4.0))
        phi_star = _threshold_row(beta, g, _threshold_columns(g, (bt,)))[0][8]  # beta is admitted
        phi_hi = math.pi / 2.0 - 0.02
        if phi_star >= phi_hi:
            continue
        phi = phi_star + rng.uniform(0.0, 1.0) * (phi_hi - phi_star)
        alpha = rng.uniform(0.05, 1.5)
        inp = IncidentShockInput(beta_i=beta, phi_i=phi)
        sol = solve_regular_reflection(inp, alpha, gas)
        t = math.tan(phi)
        tan_di = (beta - 1.0) * t / (1.0 + beta * t * t)
        cancels.append(abs(tan_di + math.tan(sol.delta_r)))
        try:
            oracle = _scan_oracle_minus_branch(beta, t, gas)
        except InternalInconsistencyError as exc:
            return _result("reflection_solve", None, 1e-9,
                           f"{exc} at beta={beta}, phi={phi}, gas={gas}")
        closed = math.tan(sol.phi_r)
        devs.append(abs(closed - oracle) / max(1.0, abs(closed)))
    worst_cancel = _fold(0.0, *cancels)
    worst_oracle = _fold(0.0, *devs)
    note = (
        f"{len(devs)} solves; max deflection-cancel residual {worst_cancel:.3e}, "
        f"max closed-form vs scan-oracle deviation {worst_oracle:.3e}"
    )
    return _result("reflection_solve", _fold(worst_cancel, worst_oracle), 1e-9, note,
                   len(devs) == 200, worst_cancel <= 1e-10)


def check_geometry_incidence() -> CheckResult:
    """Reflected-line endpoints and covolume monotonicity of the line."""
    rng = random.Random(_SEED + 1)
    worst = 0.0
    mono_ok = True
    for _ in range(50):
        alpha = rng.uniform(0.05, 1.5)
        g = rng.uniform(1.05, 5.0 / 3.0)
        bt = rng.uniform(0.0, 0.7)
        ref = reference_constants(1.0, 1.0, GasModel(g, bt))
        za = reflected_line(alpha, alpha, ref)
        zb = reflected_line(2.0 * alpha, alpha, ref)
        worst = _fold(
            worst,
            abs(za - ref.a0 / math.cos(alpha)) / (ref.a0 / math.cos(alpha)),
            abs(zb - ref.a0) / ref.a0,
        )
        theta = rng.uniform(alpha, 2.0 * alpha)
        db = 1e-5
        if bt - db <= 0.0 or bt + db >= 1.0:
            continue
        z_hi = reflected_line(theta, alpha, reference_constants(1.0, 1.0, GasModel(g, bt + db)))
        z_lo = reflected_line(theta, alpha, reference_constants(1.0, 1.0, GasModel(g, bt - db)))
        if not (z_hi - z_lo) / (2.0 * db) > 0.0:  # a NaN slope is no rise
            mono_ok = False
    note = f"max endpoint deviation {worst:.3e}; d(zeta*)/d(btilde) > 0 {'held' if mono_ok else 'VIOLATED'}"
    return _result("geometry_incidence", worst, 1e-12, note, mono_ok)


def _ideal_gas_density(sigma: float, theta: float, alpha: float) -> float:
    """Independent ideal-gas specialization of the diffraction field."""
    mu = 0.5 * math.pi / (math.pi - alpha)
    s = sigma / (1.0 + math.sqrt(max(0.0, 1.0 - sigma * sigma)))
    sm = s ** mu
    s2m = sm * sm
    beta = theta - alpha
    t1 = atan_zero_pi(
        (1.0 - s2m) * math.cos(mu * math.pi),
        -(1.0 + s2m) * math.sin(mu * math.pi) + 2.0 * sm * math.cos(mu * beta),
    )
    t2 = atan_zero_pi(
        -(1.0 - s2m) * math.cos(mu * math.pi),
        (1.0 + s2m) * math.sin(mu * math.pi) + 2.0 * sm * math.cos(mu * beta),
    )
    return 1.0 + (t1 + t2) / math.pi


def check_linear_field() -> CheckResult:
    """Center/arc limits, interior-equation convergence, and density_rows' ideal-gas reduction."""
    worst_center = worst_arc = worst_ideal = 0.0
    orders = []
    for alpha_deg in (30.0, 45.0, 60.0):
        alpha = math.radians(alpha_deg)
        gas = GasModel(1.4, 0.0)
        ref = reference_constants(1.0, 1.0, gas)
        s = 1e-8
        sigma = 2.0 * s / (1.0 + s * s)
        for beta in (0.0, 0.5 * (math.pi - alpha) - alpha * 0.3):
            theta = alpha + max(0.0, beta)
            val = linear_acoustics.diffracted_density_xi(sigma, theta, alpha, ref).rho1
            worst_center = _fold(worst_center, abs(val - math.pi / (math.pi - alpha)))
        s = 1.0 - 1e-6
        sigma = 2.0 * s / (1.0 + s * s)
        bd = linear_acoustics.diffracted_density_xi(sigma, alpha + alpha / 2.0, alpha, ref).rho1
        theta_bc = alpha + alpha + 0.55 * (math.pi - 2.0 * alpha)
        bc = linear_acoustics.diffracted_density_xi(sigma, theta_bc, alpha, ref).rho1
        worst_arc = _fold(worst_arc, abs(bd - 2.0), abs(bc - 1.0))

    alpha = math.pi / 4.0
    for bt in (0.0, 0.3):
        ref = reference_constants(1.0, 1.0, GasModel(1.4, bt))

        def f(xi, th, _ref=ref, _a=alpha):
            return linear_acoustics.diffracted_density_xi(xi / _ref.kappa0, th, _a, _ref).rho1

        points = [(0.5, 1.1), (0.5, 1.9), (0.3, 1.4), (0.7, 2.2), (0.62, 2.8)]
        for sig, th in points:
            xi = sig * ref.kappa0
            res = [
                abs(linear_acoustics.density_pde_residual(f, xi, th, h, ref))
                for h in (1e-2, 5e-3, 2.5e-3)
            ]
            for i in range(2):
                ratio = res[i] / res[i + 1]
                orders.append(math.log2(ratio) if ratio else -math.inf)  # a zero residual: -inf
    min_order = -_fold(-math.inf, *(-o for o in orders))  # the least order, a NaN kept

    ref0 = reference_constants(1.0, 1.0, GasModel(1.4, 0.0))
    sigmas = [i / 10.0 for i in range(1, 10)]
    thetas = [alpha + (math.pi - alpha) * j / 9.0 for j in range(10)]
    for sigma, (_tag, _regions, rhos) in zip(sigmas, density_rows(sigmas, thetas, alpha, ref0)):
        worst_ideal = _fold(worst_ideal, *(abs(ours - _ideal_gas_density(sigma, theta, alpha))
                                           for theta, ours in zip(thetas, rhos)))

    note = (
        f"center dev {worst_center:.3e} (tol 1e-6), arc dev {worst_arc:.3e} (tol 1e-3), "
        f"min FD order {min_order:.3f} (need >= 1.9), ideal-gas dev {worst_ideal:.3e}"
    )
    return _result("linear_field", worst_center, 1e-6, note,
                   worst_arc <= 1e-3, min_order >= 1.9, worst_ideal <= 1e-14)


def check_front_corrections() -> CheckResult:
    """Phase-root residual, covolume trends and front continuity."""
    rng = random.Random(_SEED + 2)
    phases = []
    for _ in range(200):
        g = rng.uniform(1.1, 5.0 / 3.0)
        bt = rng.uniform(0.0, 0.7)
        gas = GasModel(g, bt)
        eps = rng.uniform(0.0, 0.3)
        c = rng.uniform(-2.0, 2.0)
        front = rng.uniform(0.5, 3.0)
        r = rng.uniform(0.1, front * 0.999)
        phi = front - r
        try:
            psi = nonlinear_front.psi_root(phi, r, c, eps, gas)
        except DomainError:
            continue
        res = psi - phi - eps * c * (g + 1.0) * math.sqrt(psi * r) / (1.0 - bt)
        phases.append(abs(res) / max(abs(psi), abs(phi), 1e-30))
    worst_phase = _fold(0.0, *phases)

    alpha = math.radians(45.0)
    beta_sh = math.radians(67.5)
    eps = 0.1
    jumps, loci, strengths = [], [], []
    for i in range(15):
        bt = 0.7 * i / 14.0
        gas = GasModel(1.4, bt)
        ref = reference_constants(1.0, 1.0, gas)
        jumps.append(nonlinear_front.gradient_jump(1.0, gas, 1.0))
        loci.append(nonlinear_front.shock_locus(1.0, beta_sh, alpha, eps, gas, ref))
        strengths.append(nonlinear_front.shock_strength(beta_sh, alpha, eps, gas))
    # the jump falls and the locus and strength rise strictly; a NaN breaks each
    trends_ok = not (_dips(enumerate(jumps), lambda a, b: not b < a)
                     or _dips(enumerate(loci), lambda a, b: not b > a)
                     or _dips(enumerate(strengths), lambda a, b: not b > a))

    worst_cont = 0.0
    beta_r_angle = alpha / 2.0
    for bt in (0.0, 0.3):
        gas = GasModel(1.4, bt)
        ref = reference_constants(1.0, 1.0, gas)
        st2 = linear_acoustics.state2_expansion(beta_r_angle + alpha, alpha, ref)
        front = ref.c0 * ref.kappa0 * 1.0
        inside = nonlinear_front.rarefaction_profile(
            front * (1.0 - 1e-13), 1.0, beta_r_angle, alpha, eps, gas, ref, st2
        )
        outside = nonlinear_front.rarefaction_profile(
            front, 1.0, beta_r_angle, alpha, eps, gas, ref, st2
        )
        worst_cont = _fold(worst_cont, *(abs(a - b) for a, b in zip(inside, outside)))

    note = (
        f"max phase residual {worst_phase:.3e} (tol 1e-12); covolume trends "
        f"{'held' if trends_ok else 'VIOLATED'}; front continuity gap {worst_cont:.3e} (tol 1e-10)"
    )
    return _result("front_corrections", worst_phase, 1e-12, note, trends_ok, worst_cont <= 1e-10)


def check_inner_region() -> CheckResult:
    """Sonic layout, parabola asymptote, boundary recovery, residual identities."""
    gas = GasModel(1.4, 0.0)
    ref = reference_constants(1.0, 1.0, gas)
    geom = inner_singular.inner_geometry(gas, ref)
    gap_ok = geom.vartheta == 1.2 and (geom.sonic_R - geom.sonic_S) == geom.vartheta

    tp = 1e3
    asym = inner_singular.reflected_shock_locus(tp, geom) / (0.5 * geom.kappa0 * tp * tp)
    asym_ok = abs(asym - 1.0) <= 1e-3

    k0 = geom.kappa0
    recov = []
    for eta, want in ((2.0, 1.0), (0.5, 2.0), (-1.0, 1.25)):
        rp = eta * k0 * tp * tp / 2.0
        ip = inner_singular.InnerPoint(rp, tp, eta)
        if eta > 1.0:
            got = inner_singular.inner_weak_solution(ip, geom, "reflected")
        elif eta > 0.0:
            got = inner_singular.expansion_fan(eta * k0 / 2.0, tp, geom)
        else:
            got = inner_singular.inner_weak_solution(ip, geom, "diffracted")
        recov.append(abs(got - want))
    worst_recov = _fold(0.0, *recov)
    recov_ok = worst_recov <= 1e-6

    _, vertex = inner_singular.inner_rh_residual(geom, geom.theta0, 1.0, 2.0, 0.0)
    vertex_ok = abs(vertex) <= 1e-12

    worst_doc = 0.0
    for bt in (0.0, 0.3):
        gas_b = GasModel(1.4, bt)
        ref_b = reference_constants(1.0, 1.0, gas_b)
        geom_b = inner_singular.inner_geometry(gas_b, ref_b)
        for d in (1.0, 2.5):
            _, res = inner_singular.inner_rh_residual(geom_b, geom_b.theta0 + d, 1.0, 2.0, 0.0)
            expect = -2.0 * geom_b.kappa0 ** 2 * d * d
            worst_doc = _fold(worst_doc, abs(res - expect))
        f = math.sqrt
        fp = lambda x: 0.5 / math.sqrt(x)  # noqa: E731
        fpp = lambda x: -0.25 * x ** -1.5  # noqa: E731
        for x in (0.5, 1.0, 2.0):
            full, sub = inner_singular.similarity_residual(f, fp, fpp, x, 1.3, geom_b)
            expect = geom_b.kappa0 * (1.0 - geom_b.vartheta) / (2.0 * x)
            worst_doc = _fold(worst_doc, abs(full - expect), abs(sub))
        tpg = 1.3
        gap_measured = abs(
            inner_singular.expansion_fan(2.0 * geom_b.vartheta / tpg ** 2, tpg, geom_b) - 2.0
        )
        gap_expected = abs(tpg * math.sqrt(2.0 * geom_b.vartheta) - 2.0)
        worst_doc = _fold(worst_doc, abs(gap_measured - gap_expected))

    note = (
        f"sonic gap exact: {gap_ok}; parabola asymptote dev {abs(asym - 1.0):.3e} (tol 1e-3); "
        f"boundary recovery dev {worst_recov:.3e} (tol 1e-6); vertex residual {abs(vertex):.3e} "
        f"(tol 1e-12); documented-residual identity dev {worst_doc:.3e} (tol 1e-9)"
    )
    return _result("inner_region", worst_doc, 1e-9, note, gap_ok, asym_ok, recov_ok, vertex_ok)


def check_cli_determinism(other_results: list[CheckResult], cfg: RunConfig) -> CheckResult:
    """Byte-identical reruns of every command, plus the zero-fail exit clause."""
    from . import reports

    first, second = ({c: getattr(reports, f"render_{c}")(cfg) for c in reports.DATA_COMMANDS}
                     for _ in range(2))
    nondet = sorted(name for name in first if first[name] != second[name])
    payloads = [reports.json_text([r._asdict() for r in other_results]) for _ in range(2)]
    if payloads[0] != payloads[1]:
        nondet.append("check")
    fails = sorted(r.name for r in other_results if r.status == FAIL)
    reruns = (f"non-deterministic commands: {nondet}" if nondet
              else "all command outputs byte-identical across reruns")
    exits = (f"check cannot exit 0 while these checks fail: {fails}" if fails
             else "zero fail entries")
    return _result("cli_determinism", float(len(nondet) + len(fails)), 0.0, f"{reruns}; {exits}")


def _run(name: str, check, *args) -> CheckResult:
    """check(*args), or a FAIL entry named name when any Exception is raised inside it.

    The gate's contract: whatever a check raises, check prints a strict-JSON
    report and exits 3, since a traceback would lose the other entries.  The
    entry has no residual and its note names the exception.
    """
    try:
        return check(*args)
    except Exception as exc:
        return CheckResult(name, FAIL, None, None, f"raised {type(exc).__name__}: {exc}")


def _default_table(cfg: RunConfig) -> dict:
    """Each (beta_i, btilde) cell's _threshold_row entry, built as the table command builds it.

    One row-kernel call per beta_i over _threshold_columns(gamma, btilde_grid); an
    entry is None (not admitted) or the kernel's cell, whose J is cell[7].  cfg is valid.
    """
    columns = _threshold_columns(cfg.gamma, cfg.btilde_grid)
    return {(b, bt): cell for b in cfg.beta_grid
            for bt, cell in zip(cfg.btilde_grid, _threshold_row(b, cfg.gamma, columns))}


def run_all_checks() -> list[CheckResult]:
    """All release-gate checks in their criterion order.

    Each table check builds the default table itself, and nothing is cached
    between runs.  A kernel that raises or returns a NaN fails the check it
    runs in (both table checks when the table build raises), and every other
    check still runs.
    """
    results = [
        _run("cubic_self_consistency", check_cubic_self_consistency),
        _run("table_trends", check_table_trends),
        _run("branch_limits", check_branch_limits),
        _run("reflection_solve", check_reflection_solve),
        _run("geometry_incidence", check_geometry_incidence),
        _run("linear_field", check_linear_field),
        _run("front_corrections", check_front_corrections),
        _run("inner_region", check_inner_region),
    ]
    return results + [_run("cli_determinism", check_cli_determinism, results, RunConfig()),
                      _run("table_fixture_comparison", check_table_fixture_comparison)]


def report_payload(results: list[CheckResult]) -> dict:
    return {
        "checks": [r._asdict() for r in results],
        "counts": {s: sum(r.status == s for r in results) for s in (PASS, FAIL, DOCUMENTED)},
    }
