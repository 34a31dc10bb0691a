"""Weakly nonlinear correction at the diffracted front.

The linear front carries a square-root singularity whose matching coefficient
C(beta) decides, together with the side of the sonic ray beta = alpha, whether
the diffracted front is a rarefaction (wall side) or a shock (outer side).
Amplitudes ride on the phase psi solving an implicit quadratic.  The printed
shock location is, to first order in q, the fold tip of that phase profile
(phi = -Pi^2, where psi_root's radicand vanishes), not Whitham's equal-area cut.

Sign bookkeeping: the printed matching coefficient evaluates positive on the
rarefaction side, while the case construction requires the expansion branch
(negative coefficient) for the phase to vanish on the front.  The rarefaction
profile therefore uses -|C(beta)|; classification is purely geometric.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import ClassificationError, DomainError, SingularityError
from .geometry import check_angle
from .linear_acoustics import _front_coefficient, corner_exponent
from .thermo import GasModel, ReferenceState, check_finite, check_positive, validate_gas


class FrontClassification(NamedTuple):
    kind: str  # "rarefaction" | "shock"
    beta_angle: float
    alpha: float


def c_beta(beta_angle: float, alpha: float) -> float:
    """Matching coefficient of the front expansion along the ray beta.

    Equal in magnitude and opposite in sign to the near-front coefficient of
    the linear field on the same ray; the ray is checked by classify_front.
    """
    classify_front(beta_angle, alpha)
    return -_front_coefficient(corner_exponent(alpha), beta_angle)


def classify_front(beta_angle: float, alpha: float) -> FrontClassification:
    """Rarefaction on the wall side of the sonic ray, shock beyond it.

    The one check of a ray, in order: the sonic ray, the range [0, pi - alpha)
    (which NaN and infinite rays fail), then alpha itself.
    """
    if abs(beta_angle - alpha) <= 1e-12:
        raise SingularityError("front type is undefined on the sonic ray beta = alpha")
    if not 0.0 <= beta_angle or beta_angle >= math.pi - alpha:
        raise DomainError(f"ray angle must lie in [0, pi - alpha), got {beta_angle}")
    check_angle(alpha, "wedge half-angle")
    kind = "rarefaction" if beta_angle < alpha else "shock"
    return FrontClassification(kind=kind, beta_angle=beta_angle, alpha=alpha)


def transport_residual(
    a_profile: Callable[[float, float], float],
    r: float,
    tau: float,
    h: float,
    gas: GasModel,
) -> float:
    """Central-difference residual of the cylindrical amplitude transport law.

    Evaluates a_r + (gamma+1)/(2(1-btilde)) * a * a_tau + a/(2r); zero for any
    amplitude of the form profile(tau)/sqrt(r) carried along characteristics.
    """
    validate_gas(gas)
    check_positive(r, "r", "transport residual")
    check_finite("transport residual", tau=tau)
    if not (h > 0.0 and r - h > 0.0):
        raise DomainError("stencil leaves the domain; shrink h")
    a0 = a_profile(r, tau)
    a_r = (a_profile(r + h, tau) - a_profile(r - h, tau)) / (2.0 * h)
    a_t = (a_profile(r, tau + h) - a_profile(r, tau - h)) / (2.0 * h)
    coeff = (gas.gamma + 1.0) / (2.0 * (1.0 - gas.btilde))
    return a_r + coeff * a0 * a_t + a0 / (2.0 * r)


def check_strength(epsilon: float) -> None:
    """Reject a shock strength epsilon that is negative, NaN or infinite."""
    if not 0.0 <= epsilon < math.inf:
        raise DomainError(f"shock strength must be nonnegative and finite, got epsilon={epsilon}")


def psi_root(phi_phase: float, r: float, C: float, epsilon: float, gas: GasModel) -> float:
    """Positive root of the implicit phase equation behind the front.

    sqrt(psi) = Pi + sqrt(phi + Pi^2) with Pi = eps*C*(gamma+1)*sqrt(r)/(2(1-btilde));
    reduces to the linear phase at eps = 0 and vanishes on the front for C < 0.
    """
    validate_gas(gas)
    check_positive(r, "r", "phase root")
    check_strength(epsilon)
    pi_term = epsilon * C * (gas.gamma + 1.0) * math.sqrt(r) / (2.0 * (1.0 - gas.btilde))
    radicand = phi_phase + pi_term * pi_term
    if not radicand >= 0.0:
        raise DomainError(f"phase radicand negative ({radicand}); point beyond the fold")
    root = pi_term + math.sqrt(radicand)
    psi = root * root
    if not psi < math.inf:  # an infinite phi or C, or a root whose square overflows
        raise DomainError(f"phase root leaves the float range at phi={phi_phase}, C={C}, "
                          f"epsilon={epsilon}, r={r}")
    return psi


def rarefaction_profile(r: float, t: float, beta_angle: float, alpha: float, epsilon: float,
                        gas: GasModel, ref: ReferenceState, state2: tuple[float, float, float],
                        ) -> tuple[float, float, float, float]:
    """Flow (rho, U, V, S) across a rarefaction-type diffracted front.

    Ahead of the front (r >= c0*kappa0*t) the uniform reflected state holds;
    behind it the phase-root correction is added with net amplitude
    epsilon^2 * C / sqrt(r), continuous across the front.  state2 is the
    first-order triple (rho, U, V) of the reflected state on this ray.
    Checked on both sides of the front, in order: epsilon, the ray (c_beta),
    the side, t and r (finite and above 0), the gas.
    """
    check_strength(epsilon)
    c_case = -abs(c_beta(beta_angle, alpha))  # expansion branch
    if beta_angle > alpha:
        raise ClassificationError("rarefaction profile needs beta < alpha")
    check_positive(t, "t", "rarefaction profile")
    check_positive(r, "r", "phase root")  # psi_root's own test, run ahead of the front too
    validate_gas(gas)
    rho2_1, u2_1, v2_1 = state2
    rho2 = ref.rho0 * (1.0 + rho2_1 * epsilon)
    u2 = ref.c0 * u2_1 * epsilon
    v2 = ref.c0 * v2_1 * epsilon
    front = ref.c0 * ref.kappa0 * t
    if r >= front or epsilon == 0.0:
        return rho2, u2, v2, 0.0  # S = 0 on both sides
    psi = psi_root(front - r, r, c_case, epsilon, gas)
    corr = epsilon * epsilon * c_case * math.sqrt(psi) / math.sqrt(r)
    return rho2 + corr * ref.rho0, u2 + corr * ref.c0 * ref.kappa0, v2, 0.0


def gradient_jump(r: float, gas: GasModel, rho0: float) -> float:
    """Radial density-gradient jump across the rarefaction front at radius r."""
    validate_gas(gas)
    check_positive(r, "r", "gradient jump")
    check_positive(rho0, "rho0", "gradient jump")
    jump = _gradient_jump(gas.gamma, gas.btilde, r, rho0)
    if not math.isfinite(jump):
        raise DomainError(f"gradient jump leaves the float range at r={r}, gamma={gas.gamma}, "
                          f"btilde={gas.btilde}, rho0={rho0}")
    return jump


def _gradient_jump(g: float, bt: float, r: float, rho0: float) -> float:
    """Unchecked gradient_jump of the gas (g, bt)."""
    return (1.0 - bt) * rho0 / ((g + 1.0) * r)


def _shock_terms(g: float, bt: float, epsilon: float, c_val: float) -> tuple[float, float]:
    """Unchecked (q, strength) of the diffracted shock, which sits at a0*t*(1 + q)."""
    try:
        q = epsilon * epsilon * (g + 1.0) ** 2 * c_val * c_val / (4.0 * (1.0 - bt) ** 2)
    except OverflowError:  # a power of a huge gamma raises where a product gives inf
        q = math.inf
    strength = epsilon * epsilon * c_val * c_val * (g + 1.0) / (2.0 * (1.0 - bt))
    if not (math.isfinite(q) and math.isfinite(strength)):
        raise DomainError(f"diffracted shock terms leave the float range at gamma={g}, "
                          f"btilde={bt}, epsilon={epsilon}")
    return q, strength


def shock_locus(t: float, beta_angle: float, alpha: float, epsilon: float, gas: GasModel,
                ref: ReferenceState) -> float:
    """Position of the diffracted shock on the ray beta at time t: the phase profile's fold tip.

    Checked in order: the gas, t, epsilon, the ray (c_beta), the side.
    """
    validate_gas(gas)
    check_positive(t, "t", "shock locus")
    check_strength(epsilon)
    c_val = c_beta(beta_angle, alpha)
    if beta_angle < alpha:
        raise ClassificationError("shock locus needs beta > alpha")
    q, _ = _shock_terms(gas.gamma, gas.btilde, epsilon, c_val)
    locus = ref.a0 * t * (1.0 + q)  # c0*kappa0 = a0, and c0 alone can underflow
    if not math.isfinite(locus):
        raise DomainError(f"shock locus leaves the float range at t={t}, a0={ref.a0}, "
                          f"gamma={gas.gamma}, btilde={gas.btilde}, epsilon={epsilon}")
    return locus


def shock_strength(beta_angle: float, alpha: float, epsilon: float, gas: GasModel) -> float:
    """Density jump across the diffracted shock, in units of rho0.

    Checked in order: the gas, epsilon, the ray (c_beta), the side.
    """
    validate_gas(gas)
    check_strength(epsilon)
    c_val = c_beta(beta_angle, alpha)
    if beta_angle < alpha:
        raise ClassificationError("shock strength needs beta > alpha")
    return _shock_terms(gas.gamma, gas.btilde, epsilon, c_val)[1]
