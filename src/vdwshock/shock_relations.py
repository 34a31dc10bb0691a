"""Oblique jump relations for the incident and reflected shocks.

All relations are algebraic in tan(phi); trigonometric evaluation happens
once at the API boundary.  Both shocks obey one covolume Rankine-Hugoniot
relation, _jump, which differs between them only in the covolume fraction of
the upstream state: btilde ahead of the incident shock, btilde*beta_i ahead
of the reflected one.  Density ratios are checked against the
compressive-shock bound beta_upper with a small relative slack so that grid
points sitting exactly on an open endpoint are not spuriously rejected.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import AdmissibilityError, DomainError
from .thermo import GasModel, ReferenceState, validate_gas

#: relative slack applied at the open endpoints of the admissibility intervals
ENDPOINT_SLACK = 1e-12
#: the band's ends, defined only here: a ratio is admitted from BAND_LOW to its bound*BAND_TOP
BAND_LOW = 1.0 - ENDPOINT_SLACK
BAND_TOP = 1.0 + ENDPOINT_SLACK


class IncidentShockInput(NamedTuple):
    """Incident shock described by its density ratio and incidence angle."""

    beta_i: float
    phi_i: float

    @property
    def epsilon(self) -> float:
        """Shock strength beta_i - 1."""
        return self.beta_i - 1.0


def beta_upper(g: float, bb: float) -> float:
    """Compressive-shock bound (g+1)/(g-1+2*bb) on the density ratio.

    bb is the covolume fraction of the upstream state.
    """
    return (g + 1.0) / (g - 1.0 + 2.0 * bb)


def _jump(beta: float, t: float, g: float, bb: float) -> tuple[float, float, float, float]:
    """Unchecked jump across a shock of density ratio beta with tan(phi) = t.

    bb is the covolume fraction of the upstream state.  Returns the pressure
    ratio, the deflection tangent and the squared upstream and downstream
    Mach numbers.  At or beyond the bound beta_upper(g, bb) the pressure
    ratio has no positive denominator, which is a DomainError.
    """
    t2 = t * t
    den_p = (g + 1.0) - (g - 1.0 + 2.0 * bb) * beta
    if den_p <= 0.0 or not beta < beta_upper(g, bb):
        raise DomainError("pressure-ratio denominator vanishes at the admissibility bound")
    return (
        ((g + 1.0 - 2.0 * bb) * beta - (g - 1.0)) / den_p,
        (beta - 1.0) * t / (1.0 + beta * t2),
        2.0 * beta * (1.0 - bb) * (1.0 + t2) / den_p,
        2.0 * (1.0 - bb * beta) * (1.0 + beta * beta * t2)
        / ((g + 1.0) * beta - (g - 1.0 + 2.0 * bb * beta)),
    )


def admissible_beta_bounds(gas: GasModel, beta_i: float | None = None) -> tuple[float, float]:
    """Open interval (1, upper) of admissible density ratios.

    Without ``beta_i`` this is the incident-shock bound; with it, the bound
    for the reflected shock riding on state 1.
    """
    validate_gas(gas)
    if beta_i is None:
        return 1.0, beta_upper(gas.gamma, gas.btilde)
    check_incident_beta(beta_i, gas)
    return 1.0, beta_upper(gas.gamma, gas.btilde * beta_i)


def _within(beta: float, upper: float) -> bool:
    return beta >= BAND_LOW and beta <= upper * BAND_TOP


def check_incident_beta(beta_i: float, gas: GasModel) -> None:
    validate_gas(gas)
    upper = beta_upper(gas.gamma, gas.btilde)
    if not _within(beta_i, upper):
        raise AdmissibilityError(
            f"incident density ratio {beta_i} outside the admissible interval (1, {upper})"
        )


def normal_incident_state(beta_i: float, gas: GasModel, ref: ReferenceState) -> tuple[float, float]:
    """Head-on jump: (p1/p0, u1) behind the incident shock, v1 = 0.

    The induced speed is u1 = sqrt((p1-p0)(rho1-rho0)/(rho0*rho1)); the shock
    itself sits on the locus zeta = a0*sec(theta).
    """
    check_incident_beta(beta_i, gas)
    pressure_ratio = _jump(beta_i, 0.0, gas.gamma, gas.btilde)[0]
    rho1 = beta_i * ref.rho0
    p1 = pressure_ratio * ref.p0
    u1 = math.sqrt(max(0.0, (p1 - ref.p0) * (rho1 - ref.rho0) / (ref.rho0 * rho1)))
    return pressure_ratio, u1
