"""Self-similar coordinates, wavefront loci and region decomposition.

The upper half plane splits into the undisturbed region ahead of the incident
shock (Omega0), the uniform region behind it (Omega1), the uniform region
behind the straight reflected segment (Omega2) and the subsonic diffraction
disk (OmegaTilde), bounded by the incident locus, the straight reflected
line and the sonic arc zeta = a0.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import DomainError, RegionError
from .thermo import ReferenceState, check_finite

#: relative half-thickness (in units of a0) used to tag boundary points
BOUNDARY_TOL = 1e-12

OMEGA_0 = "Omega0"
OMEGA_1 = "Omega1"
OMEGA_2 = "Omega2"
OMEGA_TILDE = "OmegaTilde"


def check_angle(angle: float, name: str) -> None:
    """Reject an angle outside the open interval (0, pi/2)."""
    if not 0.0 < angle < math.pi / 2.0:
        raise DomainError(f"{name} must lie in (0, pi/2), got {angle}")


def check_theta(theta: float, alpha: float) -> None:
    """Reject a polar angle outside the wedge domain [alpha, pi], up to 1e-15."""
    if not alpha - 1e-15 <= theta <= math.pi + 1e-15:
        raise DomainError(f"theta={theta} outside the wedge domain [alpha, pi]")


class SelfSimilarPoint(NamedTuple):
    """Point (zeta, theta) with the reduced radius xi = zeta/c0 alongside."""

    zeta: float
    theta: float
    xi: float


class PseudoFlowState(NamedTuple):
    U: float
    V: float
    a: float


class RegionLabel(NamedTuple):
    region: str
    boundaries: tuple[str, ...] = ()


def make_point(zeta: float, theta: float, ref: ReferenceState) -> SelfSimilarPoint:
    """Point (zeta, theta); xi = zeta/c0 keeps its digits only for a finite normal c0."""
    if not sys.float_info.min <= ref.c0 < math.inf:
        raise DomainError(f"c0 must be a finite normal float, got {ref.c0} at rho0={ref.rho0}, "
                          f"p0={ref.p0} (a0={ref.a0}, kappa0={ref.kappa0})")
    _check_radius(zeta)
    check_finite("a point", theta=theta)
    return SelfSimilarPoint(zeta=zeta, theta=theta, xi=zeta / ref.c0)


def _check_radius(zeta: float) -> None:
    if not 0.0 <= zeta < math.inf:
        raise DomainError(f"similarity radius must be nonnegative and finite, got {zeta}")


def incident_locus(theta: float, ref: ReferenceState) -> float:
    """Incident-shock locus zeta = a0*sec(theta), defined for theta < pi/2."""
    if not 0.0 <= theta < math.pi / 2.0:
        raise DomainError(f"incident locus needs theta in [0, pi/2), got {theta}")
    return ref.a0 / math.cos(theta)


def reflected_line(theta: float, alpha: float, ref: ReferenceState) -> float:
    """Straight reflected segment zeta* between the wall and the sonic arc."""
    if not alpha - 1e-15 <= theta <= 2.0 * alpha + 1e-15:
        raise DomainError(f"reflected line covers [alpha, 2*alpha], got theta={theta}")
    den = math.sin(theta - alpha) / math.cos(alpha) + math.sin(2.0 * alpha - theta)
    return ref.a0 * math.tan(alpha) / den


def _loci(theta: float, alpha: float, ref: ReferenceState) -> tuple[float | None, float | None]:
    """Incident and reflected loci at theta; None where a locus does not reach theta."""
    inc = incident_locus(theta, ref) if theta < math.pi / 2.0 else None
    zs = reflected_line(theta, alpha, ref) if alpha <= theta <= 2.0 * alpha else None
    return inc, zs


def _region(
    zeta: float,
    theta: float,
    alpha: float,
    a0: float,
    eps: float,
    inc: float | None,
    zs: float | None,
) -> str:
    """Region decision of region_classify, given the loci of theta and eps = BOUNDARY_TOL*a0."""
    if inc is not None and zeta >= inc - eps:
        return OMEGA_0
    if inc is not None and zs is not None and zs - eps <= zeta <= inc + eps:
        return OMEGA_1
    if theta >= 2.0 * alpha and zeta >= a0 - eps:
        return OMEGA_1
    if zs is not None and a0 - eps <= zeta <= zs + eps:
        return OMEGA_2
    if zeta <= a0 + eps:
        return OMEGA_TILDE
    raise RegionError(
        f"point (zeta={zeta}, theta={theta}) not covered by the printed "
        f"region decomposition (alpha > pi/4 leaves a gap)"
    )


def region_classify(
    pt: SelfSimilarPoint, alpha: float, ref: ReferenceState
) -> RegionLabel:
    """Assign a region label plus tags for any boundary the point sits on.

    Interior points match exactly one region.  Points on a boundary are
    resolved by closure in the fixed priority Omega0, Omega1, Omega2,
    OmegaTilde and carry the boundary tags.  For alpha > pi/4 the printed
    decomposition leaves the patch zeta > zeta*, pi/2 < theta < 2*alpha
    uncovered; such points raise RegionError.
    """
    theta, zeta, a0 = pt.theta, pt.zeta, ref.a0
    eps = BOUNDARY_TOL * a0
    check_angle(alpha, "wedge half-angle")
    check_theta(theta, alpha)

    tags = []
    inc, zs = _loci(theta, alpha, ref)
    if inc is not None and abs(zeta - inc) <= eps:
        tags.append("incident")
    if zs is not None and abs(zeta - zs) <= eps:
        tags.append("reflected_line")
    if abs(zeta - a0) <= eps:
        tags.append("sonic_arc")
    region = _region(zeta, theta, alpha, a0, eps, inc, zs)
    return RegionLabel(region=region, boundaries=tuple(tags))


def eigenvalues_and_type(
    pt: SelfSimilarPoint, flow: PseudoFlowState
) -> tuple[float, float | None, float | None, str]:
    """Contact eigenvalue (multiplicity two), acoustic pair and the flow type.

    Type is decided by the sign of V^2 + (U-zeta)^2 - a^2; the acoustic pair
    exists only in the supersonic case.
    """
    check_finite("eigenvalue analysis", zeta=pt.zeta, U=flow.U, V=flow.V, a=flow.a)
    if pt.zeta <= 0.0:
        raise DomainError("eigenvalues need zeta > 0")
    u_rel = flow.U - pt.zeta
    if u_rel == 0.0:
        raise DomainError("contact eigenvalue undefined at U = zeta")
    lam_contact = flow.V / (pt.zeta * u_rel)
    radicand = flow.V * flow.V + u_rel * u_rel - flow.a * flow.a
    if radicand > 0.0:
        den = pt.zeta * (u_rel * u_rel - flow.a * flow.a)
        if den == 0.0:
            raise DomainError("acoustic eigenvalues undefined at (U-zeta)^2 = a^2")
        root = flow.a * math.sqrt(radicand)
        lam_plus = (flow.V * u_rel + root) / den
        lam_minus = (flow.V * u_rel - root) / den
        return lam_contact, lam_plus, lam_minus, "supersonic"
    if radicand < 0.0:
        return lam_contact, None, None, "subsonic"
    return lam_contact, None, None, "sonic"
