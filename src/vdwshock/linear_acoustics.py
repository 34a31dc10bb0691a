"""First-order acoustic field of the diffraction problem.

Outside the sonic arc the first-order density is piecewise constant (1 behind
the incident shock, 2 behind the reflected one).  Inside the arc it is the
closed-form diffraction solution written in the Busemann variable
s = (xi/kappa0)/(1 + sqrt(1-(xi/kappa0)^2)) and the corner exponent
mu = (pi/2)/(pi - alpha), with arctangents taken on the [0, pi] branch.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import DomainError, RegionError, SingularityError
from .geometry import (
    BOUNDARY_TOL,
    OMEGA_1,
    OMEGA_2,
    RegionLabel,
    SelfSimilarPoint,
    _check_radius,
    _loci,
    _region,
    check_angle,
    check_theta,
    make_point,
    region_classify,
)
from .thermo import GasModel, ReferenceState, check_finite, validate_gas

#: ring 1 - xi/kappa0 below which the near-front asymptote replaces the
#: closed form (catastrophic cancellation guard)
FRONT_RING = 1e-14

#: formula tags carried by field samples
TAG_PIECEWISE = 50
TAG_DIFFRACTION = 51
TAG_NEAR_FRONT = 52


class ExpansionCoefficients(NamedTuple):
    """Perturbation coefficients of the uniform states in the shock strength.

    State-1 entries are the first- and second-order coefficients of the
    head-on jump (density, pressure, radial/angular pseudo-velocity, sound
    speed) plus the cubic-order entropy coefficient.
    """

    rho_1: float
    p_1: float
    p_2: float
    U_1: float
    U_2: float
    V_1: float
    V_2: float
    a_1: float
    a_2: float
    s_3: float


class FieldSample(NamedTuple):
    point: SelfSimilarPoint
    region: RegionLabel
    rho1: float
    formula_tag: int


def corner_exponent(alpha: float) -> float:
    check_angle(alpha, "wedge half-angle")
    return 0.5 * math.pi / (math.pi - alpha)


def busemann_variable(xi_over_kappa0: float) -> float:
    """Map the reduced radius on [0, 1] to the Busemann disk coordinate."""
    sigma = xi_over_kappa0
    if not 0.0 <= sigma <= 1.0 + 1e-12:
        raise DomainError(f"xi/kappa0 must lie in [0, 1], got {sigma}")
    if sigma > 1.0:
        sigma = 1.0
    # 0 <= sigma <= 1 here, so 1 - sigma^2 is >= +0.0
    return sigma / (1.0 + math.sqrt(1.0 - sigma * sigma))


def atan_zero_pi(num: float, den: float) -> float:
    """Arctangent of num/den on the branch with codomain [0, pi].

    Ties at num = 0 resolve by the sign of the denominator (den > 0 -> 0,
    den < 0 -> pi), which is the unique branch matching the arc data of the
    diffraction solution.
    """
    if num == 0.0:
        num = 0.0  # fold -0.0 so the den<0 tie lands on pi
    t = math.atan2(num, den)
    if t < 0.0:
        t += math.pi
    return t


def state1_expansion(theta: float, gas: GasModel, ref: ReferenceState) -> ExpansionCoefficients:
    """Strength-expansion coefficients of the state behind the incident shock."""
    validate_gas(gas)
    check_finite("state-1 expansion", theta=theta)
    g, bt = gas.gamma, gas.btilde
    k0 = ref.kappa0
    one_m = 1.0 - bt
    return ExpansionCoefficients(
        rho_1=1.0,
        p_1=g / one_m,
        p_2=g * (g - 1.0 + 2.0 * bt) / (2.0 * one_m * one_m),
        U_1=k0 * math.cos(theta),
        U_2=(g - 3.0 + 4.0 * bt) * k0 * math.cos(theta) / (4.0 * one_m),
        V_1=-k0 * math.sin(theta),
        V_2=(3.0 - g - 4.0 * bt) * k0 * math.sin(theta) / (4.0 * one_m),
        a_1=k0 * (g - 1.0 + 2.0 * bt) / (2.0 * one_m),
        a_2=k0 * ((g - 1.0) * (g - 3.0 + 8.0 * bt) + 8.0 * bt * bt) / (8.0 * one_m * one_m),
        s_3=g * (g * g - 1.0) / (12.0 * one_m ** 3),
    )


def state2_expansion(
    theta: float, alpha: float, ref: ReferenceState
) -> tuple[float, float, float]:
    """First-order triple (rho, U, V) of the state behind the reflected shock."""
    check_finite("state-2 expansion", theta=theta, alpha=alpha)
    k0 = ref.kappa0
    return (
        2.0,
        2.0 * k0 * math.cos(alpha) * math.cos(theta - alpha),
        -2.0 * k0 * math.cos(alpha) * math.sin(theta - alpha),
    )


def first_order_piecewise(
    pt: SelfSimilarPoint, alpha: float, ref: ReferenceState
) -> FieldSample:
    """Piecewise-constant first-order density outside the sonic arc.

    On the arc itself the side of the merge point decides: 2 toward the wall
    (theta < 2*alpha), 1 beyond it.
    """
    label = region_classify(pt, alpha, ref)
    rho = (_arc_value(pt.theta - alpha, alpha) if "sonic_arc" in label.boundaries
           else {OMEGA_1: 1.0, OMEGA_2: 2.0}.get(label.region))
    if rho is None:
        raise RegionError(
            f"piecewise field covers Omega1/Omega2 only, point is in {label.region}"
        )
    return FieldSample(pt, label, rho, TAG_PIECEWISE)


def _interior_cells(s: float, mu: float, cos_bs: Iterable[float]) -> list[float]:
    """interior_density at Busemann radius s >= 0 along a row of cos(mu*beta).

    The radial factors (1-s^2m)cos(mu pi), (1+s^2m)sin(mu pi) and 2s^m, the
    -0.0 fold of atan_zero_pi and its +pi decision are made once per row.
    With n off -0.0, atan2(n, x) < 0 exactly when n < 0, unless n/x
    underflows to -0.0; for finite s >= 0 and mu it cannot, since |1 - s^2m|
    is 0 or at least 2^-53, |cos(mu pi)| is at least about 1e-19 and
    |c -/+ den| <= (1 + s^m)^2.  Adding p = 0.0 moves no t, as none is -0.0.
    """
    atan2, pi = math.atan2, math.pi
    sm = s ** mu
    s2m = sm * sm
    num, den, two_sm = (1.0 - s2m) * math.cos(mu * pi), (1.0 + s2m) * math.sin(mu * pi), 2.0 * sm
    n1, n2 = num or 0.0, -num or 0.0  # -0.0 -> 0.0, as atan_zero_pi folds it
    p1, p2 = (pi if n1 < 0.0 else 0.0), (pi if n2 < 0.0 else 0.0)
    return [1.0 + ((atan2(n1, c - den) + p1) + (atan2(n2, den + c) + p2)) / pi
            for cos_b in cos_bs for c in [two_sm * cos_b]]


def interior_density(s: float, beta: float, mu: float) -> float:
    """Diffraction density as a function of the Busemann coordinate alone.

    Even in the wall-relative angle beta, which is what enforces the Neumann
    condition on the wedge face.  s, the Busemann radius, lies in [0, 1], the
    disk that busemann_variable maps onto; mu, a corner exponent, lies in [1/2, 1].
    """
    check_finite("interior density", s=s, beta=beta, mu=mu)
    if s < 0.0:
        raise DomainError(f"interior density needs s >= 0, got {s}")
    if not 0.5 <= mu <= 1.0:
        raise DomainError(f"interior density needs mu in [1/2, 1], got {mu}")
    if s > 1.0:
        raise DomainError(f"interior density needs s <= 1, got {s}")
    return _interior_cells(s, mu, (math.cos(mu * beta),))[0]


def near_front_coefficient(theta: float, alpha: float) -> float:
    """Coefficient of sqrt(1 - xi/kappa0) in the near-arc expansion.

    Negative on the wall side of the merge point, positive beyond it;
    singular exactly there (theta = 2*alpha), where the expansion breaks down.
    """
    mu = corner_exponent(alpha)
    check_theta(theta, alpha)
    beta = theta - alpha
    if abs(beta - alpha) <= 1e-12:
        raise SingularityError("near-front expansion is singular at theta = 2*alpha")
    return _front_coefficient(mu, beta)


def _front_coefficient(mu: float, beta: float) -> float:
    """Unchecked near_front_coefficient on the ray beta; exactly -c_beta(beta, alpha)."""
    den = math.cos(mu * beta) ** 2 - math.sin(mu * math.pi) ** 2
    if den == 0.0:
        raise SingularityError("near-front expansion denominator vanished")
    return math.sqrt(2.0) * mu * math.sin(2.0 * mu * math.pi) / (math.pi * den)


def _checked_sigma(xi: float, ref: ReferenceState) -> float:
    sigma = xi / ref.kappa0
    if sigma > 1.0 + 1e-12:
        raise DomainError(f"diffraction formula needs xi <= kappa0, got xi/kappa0={sigma}")
    return sigma


def _arc_value(beta: float, alpha: float) -> float:
    """One-sided limit on the sonic arc: 2 on the wall side of the merge ray, 1 beyond."""
    return 2.0 if beta < alpha else 1.0


def _row(
    sigma: float, alpha: float, mu: float, thetas: list[float], arcs: list[float],
    cos_bs: list[float], coefs: list[float],
) -> tuple[int, list[float]]:
    """Formula tag and first-order densities of the radius sigma at the angles thetas.

    arcs and cos_bs hold each angle's arc value and cos(mu*beta).  On the arc
    (sigma >= 1) the density is the one-sided arc value; in the cancellation
    ring the near-front asymptote arc + coef*sqrt(1 - sigma), singular at the
    merge point; inside it the closed form in the Busemann variable.  coefs
    holds each angle's near_front_coefficient: the first ring row fills an
    empty list, in the order of thetas, and later ring rows reuse it.
    """
    if sigma >= 1.0:
        return TAG_DIFFRACTION, arcs
    if 1.0 - sigma < FRONT_RING:
        ring = math.sqrt(1.0 - sigma)  # sigma < 1, so 1 - sigma > 0
        if not coefs:
            coefs.extend([near_front_coefficient(theta, alpha) for theta in thetas])
        return TAG_NEAR_FRONT, [arc + coef * ring for arc, coef in zip(arcs, coefs)]
    return TAG_DIFFRACTION, _interior_cells(busemann_variable(sigma), mu, cos_bs)


def diffracted_density(
    pt: SelfSimilarPoint, alpha: float, ref: ReferenceState
) -> FieldSample:
    """First-order density in the subsonic disk (closed diffraction formula).

    At the arc the one-sided limit (the piecewise arc value) is returned; in
    the cancellation ring just inside the arc the near-front asymptote is
    used instead, except at the merge point where that asymptote is singular.
    """
    sigma = _checked_sigma(pt.xi, ref)
    label = region_classify(pt, alpha, ref)
    mu = corner_exponent(alpha)
    beta = pt.theta - alpha
    tag, (value,) = _row(sigma, alpha, mu, [pt.theta], [_arc_value(beta, alpha)],
                         [math.cos(mu * beta)], [])
    return FieldSample(pt, label, value, tag)


def diffracted_density_xi(
    xi_over_kappa0: float, theta: float, alpha: float, ref: ReferenceState
) -> FieldSample:
    """Convenience wrapper taking the reduced radius xi/kappa0 directly."""
    xi = xi_over_kappa0 * ref.kappa0
    return diffracted_density(make_point(xi * ref.c0, theta, ref), alpha, ref)


def density_rows(
    sigmas: list[float], thetas: list[float], alpha: float, ref: ReferenceState
) -> Iterator[tuple[int, tuple[str, ...], list[float]]]:
    """diffracted_density_xi over the grid sigmas x thetas, one row per sigma.

    Yields (formula tag, (each cell's region), [rho1 for each theta]); every
    cell equals the pointwise call.  What a row or a column shares is
    computed once, so a cell costs at most two arctangents: the grid checks
    c0 and the first angle as make_point does, then every angle, once; a row
    checks only its zeta and its sigma <= 1 + 1e-12, with the pointwise
    messages; each angle's near-front coefficient is taken once, at the
    first ring row.  Cells raise what the pointwise call raises, the first
    in row-major order.  An empty grid yields nothing.

    A row's regions are decided by where its zeta falls among the bounds
    _region compares it with: a0 - eps, a0 + eps and inc -/+ eps, zs -/+ eps
    of every locus that reaches an angle of the grid.  The key
    (bisect_left, bisect_right) of zeta in these sorted bounds fixes the
    outcome of each >= and <= test in _region, and theta >= 2*alpha is fixed
    per column, so rows with one key share one regions tuple, decided at the
    first of them.  A RegionError can only come from that first row, and it
    comes after the row's densities, as in the pointwise call.  Rows below
    every bound (all but the arc row and those within about 1e-12 of it)
    share the key (0, 0).
    """
    if not (sigmas and thetas):
        return
    make_point(0.0, thetas[0], ref)  # c0 and the first angle, the same for every row's point
    # angles and loci before corner_exponent: the pointwise call meets them first
    loci = []
    for theta in thetas:
        check_theta(theta, alpha)
        loci.append(_loci(theta, alpha, ref))
    mu = corner_exponent(alpha)
    arcs = [_arc_value(theta - alpha, alpha) for theta in thetas]
    cos_bs = [math.cos(mu * (theta - alpha)) for theta in thetas]
    a0 = ref.a0
    eps = BOUNDARY_TOL * a0
    bounds = sorted({b for x in [a0, *(x for pair in loci for x in pair if x is not None)]
                     for b in (x - eps, x + eps)})
    by_key = {}  # (bisect_left, bisect_right) of zeta in bounds -> the row's regions
    coefs = []  # each angle's near_front_coefficient, filled at the first ring row
    for sigma in sigmas:
        zeta = sigma * ref.kappa0 * ref.c0  # the zeta diffracted_density_xi gives make_point
        _check_radius(zeta)
        tag, rhos = _row(_checked_sigma(zeta / ref.c0, ref), alpha, mu, thetas, arcs, cos_bs,
                         coefs)
        key = bisect_left(bounds, zeta), bisect_right(bounds, zeta)
        regions = by_key.get(key)
        if regions is None:
            regions = by_key[key] = tuple(_region(zeta, theta, alpha, a0, eps, inc, zs)
                                          for theta, (inc, zs) in zip(thetas, loci))
        yield tag, regions, rhos


def density_pde_residual(
    field: Callable[[float, float], float],
    xi: float,
    theta: float,
    h: float,
    ref: ReferenceState,
) -> float:
    """Central-difference residual of the degenerate interior equation.

    Evaluates xi^2*((1-(xi/kappa0)^2)*rho_xi)_xi + rho_theta_theta + xi*rho_xi
    for a scalar field rho(xi, theta); second order in the step h.
    """
    if not h > 0.0:
        raise DomainError("step must be positive")
    check_finite("residual stencil", theta=theta)
    if not 0.0 < xi < ref.kappa0:
        raise DomainError("residual stencil needs an interior radius")
    if xi - h <= 0.0 or xi + h >= ref.kappa0:
        raise DomainError("stencil leaves the radial domain; shrink h")
    k0 = ref.kappa0

    def coeff(x: float) -> float:
        return 1.0 - (x / k0) ** 2

    f0 = field(xi, theta)
    f_xp = field(xi + h, theta)
    f_xm = field(xi - h, theta)
    flux = (
        coeff(xi + 0.5 * h) * (f_xp - f0) - coeff(xi - 0.5 * h) * (f0 - f_xm)
    ) / (h * h)
    rho_tt = (field(xi, theta + h) - 2.0 * f0 + field(xi, theta - h)) / (h * h)
    rho_x = (f_xp - f_xm) / (2.0 * h)
    return xi * xi * flux + rho_tt + xi * rho_x
