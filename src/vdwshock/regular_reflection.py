"""Detachment criterion for regular reflection.

The wedge condition reduces to a cubic in X = 1 + beta_i*tan^2(phi_i); its
unique positive root fixes the threshold J = (x*-1)/beta_i that the squared
tangent of the incidence angle must reach for a regular reflection to exist.
The production path is the row kernel _threshold_row: one call per beta_i row
gives each btilde column None or its cell (h0..h3, m, n, x*, J, phi*), writing
the band test, cubic, closed-form root, certificate and J clamp out in place.
criterion, the table renderer and the gate read admission, the printed cubic
and the root from it.  _coeffs and positive_root are the single-cubic API.
The kernel alone takes the closed-form root from its one home,
_depressed_root, and is the one home of the O(1) root certificate; each cell
it cannot certify goes to positive_root, the sign-change root _bisection_root
of the finite cubic.  _bisection_root closes a sign-change bracket to
adjacent floats by guarded Newton, nextafter steps and halving; where the
cubic's float sign changes once on the bracket, that is the float halving
alone returns.

Public functions validate (gamma, btilde, beta_i) once and then call the
unchecked private kernels, which take the validated scalars directly.  Each
operation on one cubic has one function, which takes any 6-tuple (h0, h1, h2,
h3, m, n): a CubicForm, or the plain tuple of _coeffs.  The kernels that run
once per table cell clamp with a comparison, never the builtin max or min: on
Python 3.11 (Intel Xeon) max on two floats takes about 170 ns, ten times a
comparison, and the table would pay two such calls per admissible cell.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import DetachmentError, DomainError, InternalInconsistencyError
from .geometry import check_angle
from .shock_relations import (
    BAND_LOW,
    BAND_TOP,
    IncidentShockInput,
    _jump,
    _jump_factors,
    _within,
    beta_upper,
    check_incident_beta,
)
from .thermo import GasModel, _sound_speed, check_finite, validate_gas

#: half-width of the certificate's sign bracket about the closed-form root, below |x| = 2**15
ROOT_AGREEMENT = 1e-10


class CubicForm(NamedTuple):
    """Coefficients of the threshold cubic and its depressed-form constants.

    m and n are the constants of the shifted cubic y^3 + m*y + n = 0 obtained
    from h0..h3; the root of the original cubic is y - h2/(3*h3).
    """

    h0: float
    h1: float
    h2: float
    h3: float
    m: float
    n: float


class CriterionReport(NamedTuple):
    cubic: CubicForm | None
    x_star: float | None
    J: float | None
    phi_star: float | None
    admissible: bool
    upper_beta: float


class ReflectionSolution(NamedTuple):
    """Reflected-shock quantities and the uniform state behind it.

    phi_r is the signed angle whose tangent solves the wedge condition; the
    physical branch is negative (the reflected shock leans the other way
    across the flow than the incident one).  state2 is (rho2/rho0, u2, v2,
    p2/p0) in units with rho0 = p0 = 1.
    """

    beta_r: float
    phi_r: float
    delta_r: float
    M2_sq: float
    state2: tuple[float, float, float, float]


def _f_terms(b: float, t2: float, g: float, bt: float) -> tuple[float, float]:
    cov, a_coef, g_coef = _jump_factors(b, g, bt)
    term1 = t2 * (1.0 + b * b * t2) ** 2 * cov ** 2
    term2 = (b - 1.0) * (1.0 + b * t2) * a_coef * (g_coef * b * t2 + (g + 1.0))
    return term1, term2


def F_eval(beta_i: float, tan_sq_phi_i: float, gas: GasModel) -> float:
    """Radicand of the reflected-angle formula; >= 0 iff regular reflection."""
    check_incident_beta(beta_i, gas)
    if not 0.0 <= tan_sq_phi_i < math.inf:
        raise DomainError(f"tan_sq_phi_i must be nonnegative and finite, got {tan_sq_phi_i}")
    term1, term2 = _f_terms(beta_i, tan_sq_phi_i, gas.gamma, gas.btilde)
    return term1 - term2


def _beta_r_of(b: float, tan_phi_i: float, g: float, bt: float) -> Callable[[float], float]:
    """Unchecked reflected density ratio as a function of tan(phi_r).

    The factors that depend only on the incident state are evaluated once, g_c
    read from _jump_factors; each is a subexpression that the one-piece formula
    evaluates first, in the same order, so the result is bit-identical to it.
    """
    t2 = tan_phi_i * tan_phi_i
    gb = (g + 1.0) * b
    g_coef = _jump_factors(b, g, bt)[2]
    bbt2 = b * b * t2
    num = (g + 1.0) * (1.0 + bbt2)

    def beta_r(tan_phi_r: float) -> float:
        r2 = tan_phi_r * tan_phi_r
        den = gb * (1.0 + r2) + g_coef * (bbt2 - r2)
        if den == 0.0:
            raise DomainError("reflected-ratio denominator vanishes")
        return num / den

    return beta_r


def beta_r_from_angles(beta_i: float, tan_phi_i: float, tan_phi_r: float, gas: GasModel) -> float:
    """Reflected density ratio from the two shock angles."""
    check_incident_beta(beta_i, gas)
    check_finite("reflected density ratio", tan_phi_i=tan_phi_i, tan_phi_r=tan_phi_r)
    return _beta_r_of(beta_i, tan_phi_i, gas.gamma, gas.btilde)(tan_phi_r)


def _tan_delta_r(b: float, t: float, r: float, g: float, bt: float) -> float:
    t2 = t * t
    r2 = r * r
    sec2 = 1.0 + r2
    two_cov = 2.0 * _jump_factors(b, g, bt)[0]
    num = r * (two_cov * (b * b * t2 - r2) - (g + 1.0) * (b - 1.0) * sec2)
    den = b * (g + 1.0) * (1.0 + b * t2) * sec2 - two_cov * (b * b * t2 - r2)
    if den == 0.0:
        raise DomainError("deflection denominator vanishes")
    return num / den


def _branches(b: float, t: float, g: float, bt: float) -> tuple[float, float, float]:
    term1, term2 = _f_terms(b, t * t, g, bt)
    f_value = term1 - term2
    if f_value < 0.0:
        if f_value >= -1e-12 * (abs(term1) + abs(term2)):
            f_value = 0.0
        else:
            raise DetachmentError(
                f"no regular reflection: F = {f_value} < 0 at beta_i={b}, "
                f"tan_phi_i={t}"
            )
    t2 = t * t
    cov, a_coef = _jump_factors(b, g, bt)[:2]
    den = (1.0 + b * t2) * a_coef
    lead = -t * (1.0 + b * b * t2) * cov
    root = math.sqrt(f_value)
    return (lead - root) / den, (lead + root) / den, f_value


def tan_phi_r_branches(
    beta_i: float, tan_phi_i: float, gas: GasModel
) -> tuple[float, float, float]:
    """Both roots of the wedge condition for tan(phi_r), plus the radicand F.

    Downstream consumers use the minus branch; the plus branch degenerates to
    zero with the shock strength and is discarded.  Grazing detachment
    (F = 0 up to rounding) counts as attached, with the radicand clamped.
    """
    check_incident_beta(beta_i, gas)
    check_finite("reflected angle", tan_phi_i=tan_phi_i)
    return _branches(beta_i, tan_phi_i, gas.gamma, gas.btilde)


def _coeffs(b: float, g: float, bt: float) -> tuple[float, float, float, float, float, float]:
    """Unchecked threshold cubic as the tuple (h0, h1, h2, h3, m, n)."""
    cov, a_coef, g_coef = _jump_factors(b, g, bt)
    bm1 = b - 1.0
    c = cov ** 2
    h0 = -c * bm1 ** 2 / b
    h1 = c * bm1 * (3.0 - 1.0 / b) - 2.0 * bm1 * cov * a_coef
    h2 = -((3.0 * b - 2.0) * c + bm1 * a_coef * g_coef)
    h3 = b * c
    b2 = h2 / h3
    b1 = h1 / h3
    b0 = h0 / h3
    m = b1 - b2 * b2 / 3.0
    n = b0 - b1 * b2 / 3.0 + 2.0 * b2 ** 3 / 27.0
    return h0, h1, h2, h3, m, n


def _cubic_error(exc: ArithmeticError, g: float, bt: float, b: float) -> DomainError:
    """The error for a cubic that overflows a float, or whose h3 = 0 as btilde*beta_i rounds to 1."""
    if isinstance(exc, ZeroDivisionError):
        return DomainError(f"covolume fraction btilde*beta_i of state 1 reaches 1 at gamma={g}, "
                           f"btilde={bt}, beta_i={b}")
    return DomainError(f"threshold cubic overflows a float at gamma={g}, beta_i={b}")


def cubic_coefficients(beta_i: float, gas: GasModel) -> CubicForm:
    """Coefficients h0..h3 of the threshold cubic in X = 1 + beta_i*tan^2(phi_i)."""
    check_incident_beta(beta_i, gas)
    try:
        return CubicForm._make(_coeffs(beta_i, gas.gamma, gas.btilde))
    except (OverflowError, ZeroDivisionError) as exc:
        raise _cubic_error(exc, gas.gamma, gas.btilde, beta_i) from exc


def _bisection_root(cubic: tuple[float, ...]) -> float:
    """Positive zero without radicals: 0.5*(lo + hi) of adjacent floats, p(lo) <= 0 < p(hi).

    Doubling hi from 1, then halving lo = hi/2, brackets the Horner sign change; a cubic
    that stays <= 0 up to hi = 2**1023, or > 0 down to the least subnormal, has no
    positive float root (DomainError).  Guarded Newton from hi moves the bracket end of each iterate's
    sign (a zero or non-finite derivative takes the midpoint) until an iterate leaves the
    open bracket; up to two math.nextafter steps from the last iterate, then halving,
    close the bracket.  Where p's float sign changes once on the bracket, the pair is
    unique: halving's own float.
    """
    h0, h1, h2, h3, _m, _n = cubic
    hi = 1.0
    while not (p := ((h3 * hi + h2) * hi + h1) * hi + h0) > 0.0:
        hi *= 2.0
        if hi == math.inf:
            raise DomainError("cubic has no positive root")
    lo = hi / 2.0
    while lo > 0.0 and ((h3 * lo + h2) * lo + h1) * lo + h0 > 0.0:
        lo /= 2.0
    if lo == 0.0:
        raise DomainError("cubic has no positive root")
    x = hi
    for _ in range(100):
        d = (3.0 * h3 * x + 2.0 * h2) * x + h1
        x_new = x - p / d if 0.0 < abs(d) < math.inf else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            break
        x = x_new
        if (p := ((h3 * x + h2) * x + h1) * x + h0) > 0.0:
            hi = x
        else:
            lo = x
    for _ in range(2):  # Newton can stall one ulp short of the sign change
        x = math.nextafter(x, lo if x == hi else hi)
        if not lo < x < hi:
            break
        if ((h3 * x + h2) * x + h1) * x + h0 > 0.0:
            hi = x
        else:
            lo = x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if ((h3 * mid + h2) * mid + h1) * mid + h0 > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _depressed_root(m: float, n: float) -> float:
    """Largest real root of y^3 + m*y + n = 0; a NaN discriminant raises before any shift."""
    disc = n * n / 4.0 + m ** 3 / 27.0
    if disc >= 0.0:
        s = math.sqrt(disc)
        q = -n / 2.0
        u = q + s
        v = q - s
        return math.copysign(abs(u) ** (1.0 / 3.0), u) + math.copysign(abs(v) ** (1.0 / 3.0), v)
    if disc < 0.0:
        # casus irreducibilis: three real roots, keep the largest
        rho = 2.0 * math.sqrt(-m / 3.0)
        arg = 3.0 * n / (m * rho)
        if not arg > -1.0:  # as min(1.0, max(-1.0, arg)), which sends a NaN to -1
            arg = -1.0
        elif not arg < 1.0:
            arg = 1.0
        return rho * math.cos(math.acos(arg) / 3.0)
    # a NaN discriminant, which the clamp above would turn into a finite root
    raise OverflowError("threshold cubic or its root is not finite")


def positive_root(cubic: tuple[float, ...]) -> float:
    """Positive zero of the threshold cubic by the sign-change root _bisection_root.

    All six entries must be finite (m and n too, which criterion prints).  The
    root is guarded Newton, then halving, to adjacent floats: plain halving's
    float wherever the Horner sign changes once on the bracket.  A cubic with
    no positive root is a DomainError, and so is one with a root above the one
    found: where h3 > 0, p <= 0 at p's larger critical point c, above the root.
    A cubic with h3 < 0 is solved as its negation, which has the same roots.
    """
    if not all(map(math.isfinite, cubic)):
        raise OverflowError("threshold cubic or its root is not finite")
    h0, h1, h2, h3 = cubic[:4]
    if h3 < 0.0:
        h0, h1, h2, h3 = -h0, -h1, -h2, -h3
    x = _bisection_root((h0, h1, h2, h3, *cubic[4:]))
    disc = h2 * h2 - 3.0 * h3 * h1  # a quarter of the discriminant of p'(X)
    if h3 > 0.0 and disc > 0.0:
        c = (math.sqrt(disc) - h2) / (3.0 * h3)
        if c > x and ((h3 * c + h2) * c + h1) * c + h0 <= 0.0:
            raise DomainError(f"cubic has a positive root above its root {x}")
    return x


def _threshold_columns(g: float, btildes) -> list[tuple[float, float, float, float]]:
    """Per-column constants of _threshold_row: (btilde, band top, g + 1 - 2*btilde, 2*btilde).

    The band top is beta_upper(g, btilde)*BAND_TOP, the float that
    shock_relations._within compares beta_i with.
    """
    return [(bt, beta_upper(g, bt) * BAND_TOP, g + 1.0 - 2.0 * bt, 2.0 * bt)
            for bt in btildes]


def _threshold_row(b: float, g: float, columns: list[tuple[float, float, float, float]]
                   ) -> list[tuple[float, ...] | None]:
    """One entry per column: None where it does not admit the ratio b, else the cell.

    A cell is the 9-tuple (h0, h1, h2, h3, m, n, x*, J, phi*): the cubic it
    solved, the root, the threshold and the critical angle.  columns comes from
    _threshold_columns(g, btildes) of a valid gas, and b is finite; a column
    admits b when BAND_LOW <= b <= its band top (the test of _within).  Each
    admissible cell writes out, in their float order, _coeffs' expressions, the
    closed-form root x = _depressed_root(m, n) - h2/(3*h3), and J = max(0, (x* - 1)/b).
    It splits _jump_factors' floats per column (1 - bt*b, gp*b - gm1, gm1 + two_bt*b)
    instead of calling it, which per admissible cell would cost the table about 5%.

    This is the one home of the closed-form root's O(1) certificate: the
    bracket half-width tol (ROOT_AGREEMENT, or 16 ulps of x from |x| = 2**15
    on), the sign bracket and a residual test.  One sign change in (h3, h2, h1,
    h0), zeros skipped (h3 > 0, h0 not positive, some coefficient negative, no
    negative h2 before a positive h1), means exactly one positive root
    (Descartes' rule of signs), with the cubic negative below it and positive
    above it on X > 0.  A sign bracket, the Horner value <= 0 at x - tol (or
    x - tol <= 0) and > 0 at x + tol, then pins that root within tol of x, to
    the rounding of the Horner value that the bisection relies on too; no NaN
    coefficient or root passes.  A certified cell that passes the residual
    test calls no vdwshock function but _depressed_root; any other cell takes
    x* = positive_root(cubic), looked up as a module global, the sign-change
    root.  A float overflow, a NaN discriminant or a covolume fraction
    btilde*b that rounds to 1 is _cubic_error's error.
    """
    if not b >= BAND_LOW:
        return [None] * len(columns)
    out = []
    sqrt, atan, ulp = math.sqrt, math.atan, math.ulp
    gm1 = g - 1.0
    bm1 = None
    try:
        for bt, top, gp, two_bt in columns:
            if not b <= top:
                out.append(None)
                continue
            if bm1 is None:  # the row's own terms, once a column admits b: they can overflow
                bm1 = b - 1.0
                sq = bm1 ** 2
                two_bm1 = 2.0 * bm1
                t3 = 3.0 - 1.0 / b
                t32 = 3.0 * b - 2.0
            cov = 1.0 - bt * b
            c = cov ** 2
            a_coef = gp * b - gm1
            h0 = -c * sq / b
            h1 = c * bm1 * t3 - two_bm1 * cov * a_coef
            h2 = -(t32 * c + bm1 * a_coef * (gm1 + two_bt * b))
            h3 = b * c
            b2 = h2 / h3
            b1 = h1 / h3
            m = b1 - b2 * b2 / 3.0
            n = h0 / h3 - b1 * b2 / 3.0 + 2.0 * b2 ** 3 / 27.0
            x = _depressed_root(m, n) - h2 / (3.0 * h3)
            ax = abs(x)
            tol = ROOT_AGREEMENT if ax < 32768.0 else 16.0 * ulp(x)
            lo = x - tol
            hi = x + tol
            if not (
                h3 > 0.0
                and not h0 > 0.0
                and (h0 < 0.0 or h1 < 0.0 or h2 < 0.0)
                and not (h2 < 0.0 and h1 > 0.0)
                and (lo <= 0.0 or ((h3 * lo + h2) * lo + h1) * lo + h0 <= 0.0)
                and hi > 0.0
                and ((h3 * hi + h2) * hi + h1) * hi + h0 > 0.0
                and abs(((h3 * x + h2) * x + h1) * x + h0)
                <= 1e-9 * (h3 * (1.0 if ax < 1.0 else ax) ** 3)
            ):
                x = positive_root((h0, h1, h2, h3, m, n))
            j = (x - 1.0) / b
            if not j > 0.0:  # max(0.0, .): -0.0 and NaN become +0.0
                j = 0.0
            out.append((h0, h1, h2, h3, m, n, x, j, atan(sqrt(j))))
    except (OverflowError, ZeroDivisionError) as exc:
        raise _cubic_error(exc, g, bt, b) from exc
    return out


def criterion(beta_i: float, gas: GasModel) -> CriterionReport:
    """Detachment report: threshold J and critical angle for a density ratio.

    A finite inadmissible ratio comes back flagged with the bound that excludes
    it (that is what blanks a table cell); a NaN or infinite one raises.
    """
    validate_gas(gas)
    if not math.isfinite(beta_i):
        raise DomainError(f"criterion needs a finite beta_i, got {beta_i}")
    g, bt = gas.gamma, gas.btilde
    cell = _threshold_row(beta_i, g, _threshold_columns(g, (bt,)))[0]
    upper = beta_upper(g, bt)
    if cell is None:
        return CriterionReport(None, None, None, None, False, upper)
    return CriterionReport(CubicForm._make(cell[:6]), *cell[6:], True, upper)


def solve_regular_reflection(
    inp: IncidentShockInput, alpha: float, gas: GasModel
) -> ReflectionSolution:
    """Full regular-reflection state for an incidence angle at/above critical.

    Uses the minus branch of the wedge condition, checks that the two
    deflections cancel to 1e-10 and that the reflected ratio stays in its
    admissible band (guaranteed whenever F >= 0; a violation is reported as an
    internal inconsistency, never silently accepted).
    """
    check_incident_beta(inp.beta_i, gas)
    check_angle(alpha, "wedge half-angle")
    check_angle(inp.phi_i, "incidence angle")
    g, bt, b = gas.gamma, gas.btilde, inp.beta_i
    t = math.tan(inp.phi_i)

    minus, _plus, _f = _branches(b, t, g, bt)  # raises DetachmentError when F < 0
    beta_r = _beta_r_of(b, t, g, bt)(minus)
    tan_dr = _tan_delta_r(b, t, minus, g, bt)
    p1, tan_di, m0_sq, _ = _jump(b, t, g, bt)
    if abs(tan_di + tan_dr) > 1e-10:
        raise InternalInconsistencyError(
            f"deflections do not cancel: tan_di={tan_di}, tan_dr={tan_dr}"
        )
    upper_r = beta_upper(g, bt * b)
    if not _within(beta_r, upper_r):
        raise InternalInconsistencyError(
            f"reflected ratio {beta_r} escaped its admissible band (1, {upper_r}) despite F >= 0"
        )

    p21, _, _, m2_sq = _jump(beta_r, minus, g, bt * b)  # state 1 has covolume bt*b
    p2 = p1 * p21
    rho2 = b * beta_r
    a0 = _sound_speed(g, 1.0, 1.0, bt)
    a2 = _sound_speed(g, p2, rho2, bt * rho2)
    # flow behind the reflected shock runs along the wall; its lab speed is the
    # wall-point speed minus the pseudo-speed M2*a2
    u2 = (math.sqrt(m0_sq) * a0 - math.sqrt(m2_sq) * a2) * math.cos(alpha)
    v2 = u2 * math.tan(alpha)
    return ReflectionSolution(
        beta_r=beta_r,
        phi_r=math.atan(minus),
        delta_r=math.atan(tan_dr),
        M2_sq=m2_sq,
        state2=(rho2, u2, v2, p2),
    )
