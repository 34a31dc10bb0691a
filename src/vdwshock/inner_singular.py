"""Local structure at the merge point of reflected and diffracted fronts.

Stretched coordinates r' = (xi - kappa0)/eps, theta' = (theta - 2*alpha)/sqrt(eps)
reduce the problem to a mixed-type model whose sonic lines sit at
r' = vartheta and r' = 2*vartheta, with vartheta = (kappa0/2)(gamma+1)/(1-btilde).
Shock parabolas, piecewise weak solutions, an expansion fan with a
square-root similarity profile, and residual evaluators for the jump
relations are provided; known internal mismatches of the closed forms are
measured and reported, never patched.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError
from .geometry import SelfSimilarPoint, check_angle
from .linear_acoustics import atan_zero_pi
from .thermo import GasModel, ReferenceState, check_finite, check_positive, validate_gas

KIND_REFLECTED = "reflected"
KIND_DIFFRACTED = "diffracted"


class InnerPoint(NamedTuple):
    """Stretched coordinates; eta = 2*r'/(kappa0*theta'^2) when theta' != 0."""

    r_prime: float
    theta_prime: float
    eta: float | None


class InnerGeometry(NamedTuple):
    vartheta: float
    theta0: float
    sonic_S: float
    sonic_R: float
    kappa0: float


def stretch(
    pt: SelfSimilarPoint, alpha: float, epsilon: float, ref: ReferenceState
) -> InnerPoint:
    """Map an outer point to the stretched frame centered on the merge point."""
    check_positive(epsilon, "epsilon", "stretching")
    check_angle(alpha, "wedge half-angle")
    r_prime = (pt.xi - ref.kappa0) / epsilon
    theta_prime = (pt.theta - 2.0 * alpha) / math.sqrt(epsilon)
    if not (math.isfinite(r_prime) and math.isfinite(theta_prime)):
        raise DomainError(f"stretched point leaves the float range at epsilon={epsilon}: "
                          f"r'={r_prime}, theta'={theta_prime}")
    eta = None
    if theta_prime != 0.0:
        denom = ref.kappa0 * theta_prime * theta_prime
        if denom == 0.0:
            raise DomainError(f"theta'^2 underflows at epsilon={epsilon}, theta'={theta_prime}")
        eta = 2.0 * r_prime / denom
    return InnerPoint(r_prime=r_prime, theta_prime=theta_prime, eta=eta)


def inner_linear(ip: InnerPoint, ref: ReferenceState) -> float:
    """Stretched limit of the linear diffraction field (subsonic side only)."""
    check_finite("inner linear field", r_prime=ip.r_prime, theta_prime=ip.theta_prime)
    if ip.r_prime >= 0.0:
        raise DomainError(f"inner linear field needs r' < 0, got {ip.r_prime}")
    num = math.sqrt(-2.0 * ip.r_prime / ref.kappa0)
    return 1.0 + atan_zero_pi(num, ip.theta_prime) / math.pi


def inner_geometry(
    gas: GasModel, ref: ReferenceState, theta0: float = 0.0
) -> InnerGeometry:
    """Sonic-line layout of the inner mixed-type model."""
    validate_gas(gas)
    check_finite("inner geometry", theta0=theta0)
    return _inner_geometry(gas.gamma, gas.btilde, ref, theta0)


def _inner_geometry(g: float, bt: float, ref: ReferenceState, theta0: float) -> InnerGeometry:
    """Unchecked inner_geometry of a valid gas (g, bt) at a finite theta0."""
    vartheta = 0.5 * ref.kappa0 * (g + 1.0) / (1.0 - bt)
    return InnerGeometry(
        vartheta=vartheta,
        theta0=theta0,
        sonic_S=vartheta,
        sonic_R=2.0 * vartheta,
        kappa0=ref.kappa0,
    )


# unchecked kernels of the functions below, shared with the grid renderer
def _parabola(theta_prime: float, geom: InnerGeometry) -> float:
    """The term 0.5*kappa0*(theta' - theta0)^2 common to both shock parabolas."""
    d = theta_prime - geom.theta0
    return 0.5 * geom.kappa0 * d * d


def _lift(eta: float) -> float:
    """atan(sqrt(-eta))/pi: the diffracted state's rise above 1 (eta < 0)."""
    return math.atan(math.sqrt(-eta)) / math.pi


def _diffracted_locus(parabola: float, lift: float, geom: InnerGeometry) -> float:
    return parabola + 0.5 * geom.vartheta * (2.0 + lift)


def reflected_shock_locus(theta_prime: float, geom: InnerGeometry) -> float:
    """Inner parabola of the reflected shock."""
    check_finite("reflected shock locus", theta_prime=theta_prime)
    return _parabola(theta_prime, geom) + 1.5 * geom.vartheta


def shock_loci(theta_prime: float, eta: float, geom: InnerGeometry) -> tuple[float, float]:
    """Reflected and diffracted shock parabolas at one stretched angle.

    The diffracted offset carries the boundary label eta of the state it
    borders and exists for eta < 0 only.
    """
    s_r = reflected_shock_locus(theta_prime, geom)
    if not -math.inf < eta < 0.0:
        raise DomainError(f"diffracted locus needs eta < 0 and finite, got {eta}")
    return s_r, _diffracted_locus(_parabola(theta_prime, geom), _lift(eta), geom)


def inner_weak_solution(ip: InnerPoint, geom: InnerGeometry, kind: str) -> float:
    """Piecewise weak solution across the reflected or diffracted inner shock."""
    check_finite("inner weak solution", r_prime=ip.r_prime, theta_prime=ip.theta_prime)
    if kind == KIND_REFLECTED:
        return 1.0 if ip.r_prime > reflected_shock_locus(ip.theta_prime, geom) else 2.0
    if kind == KIND_DIFFRACTED:
        if ip.eta is None:
            raise DomainError("diffracted solution needs eta (theta' != 0)")
        check_finite("inner weak solution", eta=ip.eta)
        _, s_d = shock_loci(ip.theta_prime, ip.eta, geom)  # enforces eta < 0
        return 1.0 if ip.r_prime > s_d else 1.0 + _lift(ip.eta)
    raise DomainError(f"kind must be '{KIND_REFLECTED}' or '{KIND_DIFFRACTED}', got {kind!r}")


def expansion_fan(x: float, theta_prime: float, geom: InnerGeometry) -> float:
    """Three-branch fan profile in the similarity variable x = r'/theta'^2.

    The middle branch theta'^2*sqrt(x) is evaluated verbatim; it joins its
    neighbours continuously only for special theta', and the measured gap is
    part of the documented-residual report rather than being smoothed over.
    """
    if theta_prime == 0.0:
        raise DomainError("fan profile needs theta' != 0")
    if not (math.isfinite(x) and math.isfinite(theta_prime)):
        raise DomainError(f"fan profile needs finite x and theta', got {x}, {theta_prime}")
    tp2 = theta_prime * theta_prime
    if x < geom.vartheta / tp2:
        eta = 2.0 * x / geom.kappa0
        if eta >= 0.0:
            raise DomainError(
                f"inner fan boundary value needs eta < 0, got eta={eta} (x={x})"
            )
        return 1.0 + _lift(eta)
    if x > 2.0 * geom.vartheta / tp2:
        return 2.0
    return tp2 * math.sqrt(x)


def inner_rh_residual(
    geom: InnerGeometry,
    theta_prime: float,
    U_ahead: float,
    U_behind: float,
    V_jump: float,
) -> tuple[float, float]:
    """Residuals of the inner jump relations on the reflected parabola.

    Returns (flux-jump residual, averaged-state residual).  The first is
    [V] + S_R'(theta')*[U]; the second checks the averaged relation
    2*kappa0*vartheta*<U> - (S_R')^2 - 2*kappa0*S_R, which vanishes exactly at
    the parabola vertex and equals -2*kappa0^2*(theta'-theta0)^2 off it for
    U = (1, 2); the off-vertex value is a documented property of the printed
    closed forms, reported as measured.
    """
    check_finite("inner jump residual", U_ahead=U_ahead, U_behind=U_behind, V_jump=V_jump)
    d_sr = geom.kappa0 * (theta_prime - geom.theta0)
    s_r = reflected_shock_locus(theta_prime, geom)
    jump_u = U_behind - U_ahead
    res_jump = V_jump + d_sr * jump_u
    mean_u = 0.5 * (U_ahead + U_behind)
    res_avg = 2.0 * geom.kappa0 * geom.vartheta * mean_u - d_sr * d_sr - 2.0 * geom.kappa0 * s_r
    return res_jump, res_avg


def similarity_residual(
    f: Callable[[float], float],
    fp: Callable[[float], float],
    fpp: Callable[[float], float],
    x: float,
    theta_prime: float,
    geom: InnerGeometry,
) -> tuple[float, float]:
    """Residual of the fan similarity ODE at x, given f and its derivatives.

    Returns (full residual, sub-operator 4x^2 f'' - 2x f' + 2f).  For
    f = sqrt(x) the sub-operator vanishes identically and the full residual
    equals kappa0*(1-vartheta)/(2x), another documented closed-form property.
    """
    check_positive(x, "x", "similarity residual")
    check_finite("similarity residual", theta_prime=theta_prime)
    if theta_prime == 0.0:
        raise DomainError("similarity residual needs theta' != 0")
    tp2 = theta_prime * theta_prime
    r_prime = x * tp2
    fv, fpv, fppv = f(x), fp(x), fpp(x)
    coeff = 4.0 * x * x + (2.0 * geom.kappa0 / tp2) * (geom.vartheta * tp2 * fv - r_prime)
    full = coeff * fppv - (geom.kappa0 + 2.0 * x) * fpv + 2.0 * geom.kappa0 * fpv * fpv + 2.0 * fv
    sub = 4.0 * x * x * fppv - 2.0 * x * fpv + 2.0 * fv
    return full, sub
