"""Covolume (van der Waals) thermodynamics and upstream reference constants.

Every downstream formula is written in the dimensionless pair (gamma, btilde)
with btilde = b*rho0; dimensional quantities enter only through a
ReferenceState built from the upstream density and pressure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError


class GasModel(NamedTuple):
    """Specific-heat ratio and scaled excluded volume btilde = b*rho0."""

    gamma: float
    btilde: float = 0.0


class ThermoState(NamedTuple):
    rho: float
    p: float


class ReferenceState(NamedTuple):
    """Upstream state with the derived constants of the asymptotic formulas.

    kappa0 = (1 - btilde)^(-(gamma+1)/2) and c0 = a0/kappa0 are the reduced
    wavefront constants; kappa0 = 1 exactly for an ideal gas.
    """

    rho0: float
    p0: float
    a0: float
    kappa0: float
    c0: float


def validate_gas(gas: GasModel) -> GasModel:
    """Return ``gas`` unchanged, raising on the first violated invariant."""
    if not gas.gamma > 1.0:
        raise DomainError(f"gamma must exceed 1, got {gas.gamma}")
    if not math.isfinite(gas.gamma):
        raise DomainError(f"gamma must be finite, got {gas.gamma}")
    if gas.btilde < 0.0:
        raise DomainError(f"btilde must be nonnegative, got {gas.btilde}")
    if not gas.btilde < 1.0:
        raise DomainError(f"btilde must be below 1, got {gas.btilde}")
    return gas


def check_positive(value: float, name: str, where: str) -> None:
    """Reject a value that is not a finite float above 0 (NaN included)."""
    if not value > 0.0:
        raise DomainError(f"{where} needs {name} > 0")
    if value == math.inf:
        raise DomainError(f"{where} needs a finite {name}, got {value}")


def check_finite(where: str, **values: float) -> None:
    """Reject a NaN or infinite value, naming it."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{where} needs a finite {name}, got {value}")


def _check_state(state: ThermoState, b: float) -> None:
    if not state.rho > 0.0:
        raise DomainError(f"density must be positive, got {state.rho}")
    if not state.p > 0.0:
        raise DomainError(f"pressure must be positive, got {state.p}")
    if math.inf in (state.rho, state.p):
        raise DomainError(f"density and pressure must be finite, got {state.rho}, {state.p}")
    if b * state.rho >= 1.0:
        raise DomainError(f"covolume fraction b*rho must stay below 1, got {b * state.rho}")


def sound_speed(state: ThermoState, gas: GasModel, rho0: float = 1.0) -> float:
    """Speed of sound sqrt(gamma*p / (rho*(1 - b*rho))), with b = btilde/rho0."""
    validate_gas(gas)
    check_positive(rho0, "rho0", "sound speed")
    b = gas.btilde / rho0
    _check_state(state, b)
    return math.sqrt(gas.gamma * state.p / (state.rho * (1.0 - b * state.rho)))


def thermo_eval(
    state: ThermoState,
    gas: GasModel,
    rho0: float = 1.0,
    reference: ThermoState | None = None,
) -> tuple[float, float, float]:
    """Internal energy, enthalpy and entropy offset for the covolume EOS.

    Returns (e, h, s_rel) with e = p*(V-b)/(gamma-1), h = p*(gamma*V-b)/(gamma-1)
    and s_rel = ln(p*(V-b)^gamma) - ln(p_ref*(V_ref-b)^gamma), i.e. the entropy
    offset (S - S_ref)/c_v.  With ``reference`` omitted the offset is taken
    against p*(V-b)^gamma = 1.  The identity h - e = p*V holds for all states.
    """
    validate_gas(gas)
    check_positive(rho0, "rho0", "thermodynamic evaluation")
    b = gas.btilde / rho0
    _check_state(state, b)
    v = 1.0 / state.rho
    e = state.p * (v - b) / (gas.gamma - 1.0)
    h = state.p * (gas.gamma * v - b) / (gas.gamma - 1.0)
    potential = math.log(state.p) + gas.gamma * math.log(v - b)
    if reference is not None:
        _check_state(reference, b)
        v_ref = 1.0 / reference.rho
        potential -= math.log(reference.p) + gas.gamma * math.log(v_ref - b)
    return e, h, potential


def reference_constants(rho0: float, p0: float, gas: GasModel) -> ReferenceState:
    """Build the upstream ReferenceState; c0*kappa0 = a0 by construction."""
    validate_gas(gas)
    check_reference(rho0, p0)
    return _reference_state(gas.gamma, gas.btilde, rho0, p0)


def _reference_state(g: float, bt: float, rho0: float, p0: float) -> ReferenceState:
    """Unchecked ReferenceState of a valid gas (g, bt) at a valid (rho0, p0)."""
    a0, kappa0 = _a0_kappa0(g, bt, rho0, p0)
    return ReferenceState(rho0=rho0, p0=p0, a0=a0, kappa0=kappa0, c0=a0 / kappa0)


def check_reference(rho0: float, p0: float) -> None:
    """Reject an upstream density or pressure that is not a finite float above 0."""
    if rho0 <= 0.0 or p0 <= 0.0:
        raise DomainError("reference density and pressure must be positive")
    if not (math.isfinite(rho0) and math.isfinite(p0)):
        raise DomainError(f"reference density and pressure must be finite, got {rho0}, {p0}")


def _a0_kappa0(g: float, bt: float, rho0: float, p0: float) -> tuple[float, float]:
    """Unchecked (a0, kappa0) of a valid gas (g, bt) at a valid (rho0, p0)."""
    den = rho0 * (1.0 - bt)
    a0 = math.sqrt(g * p0 / den) if den > 0.0 else 0.0
    if not 0.0 < a0 < math.inf:  # the quotient left the float range: root each factor
        a0 = math.sqrt(g) * (math.sqrt(p0) / math.sqrt(rho0)) / math.sqrt(1.0 - bt)
    try:
        kappa0 = (1.0 - bt) ** (-(g + 1.0) / 2.0)
    except OverflowError:
        kappa0 = math.inf
    if not (a0 < math.inf and kappa0 < math.inf):
        raise DomainError(f"reference constants a0, kappa0 leave the float range at gamma={g}, "
                          f"btilde={bt}, rho0={rho0}, p0={p0}")
    return a0, kappa0
