"""One table of the public entry points' input checks.

Each row calls one public function with one out-of-domain argument and names
the error type it must raise and the start of its message.  NaN must fail
every range test, and infinity every test whose domain is finite.
"""

import math

import pytest

from vdwshock.errors import DomainError
from vdwshock.geometry import PseudoFlowState, SelfSimilarPoint, eigenvalues_and_type, make_point
from vdwshock.inner_singular import expansion_fan, inner_geometry, similarity_residual, stretch
from vdwshock.linear_acoustics import (busemann_variable, density_pde_residual,
                                       near_front_coefficient)
from vdwshock.nonlinear_front import (c_beta, classify_front, gradient_jump, psi_root,
                                      rarefaction_profile, shock_locus, shock_strength,
                                      transport_residual)
from vdwshock.regular_reflection import F_eval, criterion, table_generate
from vdwshock.thermo import GasModel, ThermoState, reference_constants, sound_speed, thermo_eval

NAN, INF = math.nan, math.inf
GAS = GasModel(1.4)
REF = reference_constants(1.0, 1.0, GAS)
GEOM = inner_geometry(GAS, REF)
K0 = REF.kappa0
BETA_SHOCK, ALPHA = math.radians(67.5), math.pi / 4.0  # a ray on the shock side
BETA_FAN = math.radians(30.0)  # a ray on the rarefaction side
STATE2 = (0.5, 0.2, 0.1)


def _one(*_):
    return 1.0


CASES = [
    # (id, call, error type, message prefix)
    ("make_point zeta < 0", lambda: make_point(-1.0, 1.0, REF),
     DomainError, "similarity radius must be nonnegative"),
    ("make_point zeta nan", lambda: make_point(NAN, 1.0, REF),
     DomainError, "similarity radius must be nonnegative"),
    ("make_point zeta inf", lambda: make_point(INF, 1.0, REF),
     DomainError, "similarity radius must be nonnegative and finite"),
    ("eigenvalues zeta <= 0",
     lambda: eigenvalues_and_type(SelfSimilarPoint(0.0, 1.0, 0.0), PseudoFlowState(0.5, 0.0, 1.0)),
     DomainError, "eigenvalues need zeta > 0"),
    ("eigenvalues (U-zeta)^2 = a^2",
     lambda: eigenvalues_and_type(SelfSimilarPoint(1.0, 1.0, 1.0), PseudoFlowState(2.0, 0.5, 1.0)),
     DomainError, "acoustic eigenvalues undefined at (U-zeta)^2 = a^2"),
    ("expansion_fan theta' = 0", lambda: expansion_fan(1.0, 0.0, GEOM),
     DomainError, "fan profile needs theta' != 0"),
    ("expansion_fan x nan", lambda: expansion_fan(NAN, 1.0, GEOM),
     DomainError, "fan profile needs finite x and theta'"),
    ("expansion_fan theta' inf", lambda: expansion_fan(1.0, INF, GEOM),
     DomainError, "fan profile needs finite x and theta'"),
    ("similarity_residual x <= 0", lambda: similarity_residual(_one, _one, _one, 0.0, 1.3, GEOM),
     DomainError, "similarity residual needs x > 0"),
    ("similarity_residual theta' = 0", lambda: similarity_residual(_one, _one, _one, 1.0, 0.0, GEOM),
     DomainError, "similarity residual needs theta' != 0"),
    ("stretch epsilon nan", lambda: stretch(make_point(1.0, 1.0, REF), 0.5, NAN, REF),
     DomainError, "stretching needs epsilon > 0"),
    ("stretch epsilon inf", lambda: stretch(make_point(1.0, 1.0, REF), 0.5, INF, REF),
     DomainError, "stretching needs a finite epsilon"),
    ("busemann_variable < 0", lambda: busemann_variable(-0.1),
     DomainError, "xi/kappa0 must lie in [0, 1]"),
    ("busemann_variable nan", lambda: busemann_variable(NAN),
     DomainError, "xi/kappa0 must lie in [0, 1]"),
    ("density_pde_residual h <= 0", lambda: density_pde_residual(_one, 0.5 * K0, 1.0, 0.0, REF),
     DomainError, "step must be positive"),
    ("density_pde_residual xi = kappa0", lambda: density_pde_residual(_one, K0, 1.0, 1e-3, REF),
     DomainError, "residual stencil needs an interior radius"),
    ("transport_residual r <= 0", lambda: transport_residual(_one, 0.0, 0.0, 0.1, GAS),
     DomainError, "transport residual needs r > 0"),
    ("transport_residual r inf", lambda: transport_residual(_one, INF, 0.0, 0.1, GAS),
     DomainError, "transport residual needs a finite r"),
    ("transport_residual stencil", lambda: transport_residual(_one, 1.0, 0.0, 2.0, GAS),
     DomainError, "stencil leaves the domain; shrink h"),
    ("transport_residual h nan", lambda: transport_residual(_one, 1.0, 0.0, NAN, GAS),
     DomainError, "stencil leaves the domain; shrink h"),
    ("psi_root r <= 0", lambda: psi_root(1.0, 0.0, -0.5, 0.1, GAS),
     DomainError, "phase root needs r > 0"),
    ("psi_root r inf", lambda: psi_root(1.0, INF, -0.5, 0.1, GAS),
     DomainError, "phase root needs a finite r"),
    ("psi_root epsilon < 0", lambda: psi_root(1.0, 1.0, -0.5, -0.1, GAS),
     DomainError, "shock strength must be nonnegative"),
    ("psi_root epsilon nan", lambda: psi_root(1.0, 1.0, -0.5, NAN, GAS),
     DomainError, "shock strength must be nonnegative"),
    ("psi_root phi nan", lambda: psi_root(NAN, 1.0, -0.5, 0.1, GAS),
     DomainError, "phase radicand negative"),
    ("psi_root epsilon inf", lambda: psi_root(1.0, 1.0, -0.5, INF, GAS),
     DomainError, "shock strength must be nonnegative and finite"),
    ("psi_root phi inf", lambda: psi_root(INF, 1.0, -0.5, 0.1, GAS),
     DomainError, "phase root leaves the float range at phi=inf, C=-0.5"),
    ("psi_root C inf", lambda: psi_root(1.0, 1.0, INF, 0.1, GAS),
     DomainError, "phase root leaves the float range at phi=1.0, C=inf"),
    ("psi_root C -inf", lambda: psi_root(1.0, 1.0, -INF, 0.1, GAS),
     DomainError, "phase root leaves the float range at phi=1.0, C=-inf"),
    # Pi = 1e154 and phi = 0: the radicand 1e308 is finite, the root's square is not
    ("psi_root square overflows", lambda: psi_root(0.0, 1.0, 1e154 / 0.12, 0.1, GAS),
     DomainError, "phase root leaves the float range"),
    # ahead of the front the profile never reaches psi_root: these returned a state
    ("rarefaction_profile epsilon < 0",
     lambda: rarefaction_profile(5.0, 1.0, BETA_FAN, ALPHA, -1.0, GAS, REF, STATE2),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=-1.0"),
    ("rarefaction_profile epsilon inf",
     lambda: rarefaction_profile(5.0, 1.0, BETA_FAN, ALPHA, INF, GAS, REF, STATE2),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=inf"),
    ("rarefaction_profile t < 0",
     lambda: rarefaction_profile(5.0, -1.0, BETA_FAN, ALPHA, 0.1, GAS, REF, STATE2),
     DomainError, "rarefaction profile needs t > 0"),
    ("rarefaction_profile t nan",
     lambda: rarefaction_profile(5.0, NAN, BETA_FAN, ALPHA, 0.1, GAS, REF, STATE2),
     DomainError, "rarefaction profile needs t > 0"),
    ("rarefaction_profile r inf",
     lambda: rarefaction_profile(INF, 1.0, BETA_FAN, ALPHA, 0.1, GAS, REF, STATE2),
     DomainError, "phase root needs a finite r, got inf"),
    # these returned the uniform state without looking at the gas
    ("rarefaction_profile gas ahead of the front",
     lambda: rarefaction_profile(10.0, 1.0, BETA_FAN, ALPHA, 0.1, GasModel(0.5, 2.0), REF, STATE2),
     DomainError, "gamma must exceed 1, got 0.5"),
    ("rarefaction_profile gas at epsilon = 0",
     lambda: rarefaction_profile(0.5, 1.0, BETA_FAN, ALPHA, 0.0, GasModel(NAN), REF, STATE2),
     DomainError, "gamma must exceed 1, got nan"),
    ("gradient_jump r <= 0", lambda: gradient_jump(0.0, GAS, 1.0),
     DomainError, "gradient jump needs r > 0"),
    ("gradient_jump r inf", lambda: gradient_jump(INF, GAS, 1.0),
     DomainError, "gradient jump needs a finite r"),
    ("gradient_jump rho0 < 0", lambda: gradient_jump(1.0, GAS, -1.0),
     DomainError, "gradient jump needs rho0 > 0"),
    ("gradient_jump rho0 inf", lambda: gradient_jump(1.0, GAS, INF),
     DomainError, "gradient jump needs a finite rho0"),
    ("shock_locus t < 0", lambda: shock_locus(-1.0, BETA_SHOCK, ALPHA, 0.1, GAS, REF),
     DomainError, "shock locus needs t > 0"),
    ("shock_locus t nan", lambda: shock_locus(NAN, BETA_SHOCK, ALPHA, 0.1, GAS, REF),
     DomainError, "shock locus needs t > 0"),
    ("shock_locus epsilon < 0", lambda: shock_locus(1.0, BETA_SHOCK, ALPHA, -1.0, GAS, REF),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=-1.0"),
    ("shock_locus epsilon inf", lambda: shock_locus(1.0, BETA_SHOCK, ALPHA, INF, GAS, REF),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=inf"),
    ("shock_strength epsilon < 0", lambda: shock_strength(BETA_SHOCK, ALPHA, -1.0, GAS),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=-1.0"),
    ("shock_strength epsilon nan", lambda: shock_strength(BETA_SHOCK, ALPHA, NAN, GAS),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=nan"),
    # a finite ratio outside the band comes back flagged; these did too
    ("criterion beta_i nan", lambda: criterion(NAN, GAS),
     DomainError, "criterion needs a finite beta_i, got nan"),
    ("criterion beta_i inf", lambda: criterion(INF, GAS),
     DomainError, "criterion needs a finite beta_i, got inf"),
    ("table_generate beta nan", lambda: table_generate([1.2, NAN], [0.0], 1.4),
     DomainError, "criterion needs a finite beta_i, got nan"),
    ("F_eval tan^2 < 0", lambda: F_eval(1.1, -1.0, GAS),
     DomainError, "tan_sq_phi_i must be nonnegative"),
    ("F_eval tan^2 nan", lambda: F_eval(1.1, NAN, GAS),
     DomainError, "tan_sq_phi_i must be nonnegative"),
    ("F_eval tan^2 inf", lambda: F_eval(1.1, INF, GAS),
     DomainError, "tan_sq_phi_i must be nonnegative and finite"),
    ("sound_speed density <= 0", lambda: sound_speed(ThermoState(0.0, 1.0), GAS),
     DomainError, "density must be positive"),
    ("sound_speed density nan", lambda: sound_speed(ThermoState(NAN, 1.0), GAS),
     DomainError, "density must be positive"),
    ("sound_speed pressure inf", lambda: sound_speed(ThermoState(1.0, INF), GAS),
     DomainError, "density and pressure must be finite"),
    ("thermo_eval density nan", lambda: thermo_eval(ThermoState(NAN, 1.0), GAS),
     DomainError, "density must be positive"),
]


@pytest.mark.parametrize("call, error, prefix", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_public_input_check(call, error, prefix):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(prefix), str(info.value)


# every float argument of the front functions; each (name, function, valid arguments)
NON_FINITE_TARGETS = [
    ("classify_front", classify_front, (BETA_SHOCK, ALPHA)),
    ("c_beta", c_beta, (BETA_SHOCK, ALPHA)),
    ("shock_locus", shock_locus, (1.0, BETA_SHOCK, ALPHA, 0.1, GAS, REF)),
    ("shock_strength", shock_strength, (BETA_SHOCK, ALPHA, 0.1, GAS)),
    # r = 0.5 lies behind the front at t = 1
    ("rarefaction_profile", rarefaction_profile, (0.5, 1.0, BETA_FAN, ALPHA, 0.1, GAS, REF, STATE2)),
    ("near_front_coefficient", near_front_coefficient, (ALPHA + BETA_FAN, ALPHA)),
]


def test_front_functions_reject_non_finite_floats():
    # before, a NaN ray gave C = nan and the kind "shock", and near_front_coefficient(nan, .)
    # returned nan
    wrong = []
    for name, function, args in NON_FINITE_TARGETS:
        function(*args)  # the valid call goes through
        for i, arg in enumerate(args):
            if type(arg) is not float:
                continue
            for bad in (NAN, INF, -INF):
                try:
                    function(*args[:i], bad, *args[i + 1:])
                    got = "no error"
                except Exception as exc:
                    got = type(exc).__name__
                if got != "DomainError":
                    wrong.append(f"{name} argument {i} = {bad}: {got}")
    assert wrong == []
