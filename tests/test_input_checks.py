"""One table of the public entry points' input checks.

Each row calls one public function with one out-of-domain argument and names
the error type it must raise and the start of its message.  NaN must fail
every range test, and infinity every test whose domain is finite.
"""

import functools
import inspect
import math

import pytest

import vdwshock
from vdwshock.errors import DomainError
from vdwshock.geometry import PseudoFlowState, SelfSimilarPoint, eigenvalues_and_type, make_point
from vdwshock.inner_singular import (InnerPoint, expansion_fan, inner_geometry, inner_linear,
                                     inner_weak_solution, similarity_residual, stretch)
from vdwshock.linear_acoustics import busemann_variable, density_pde_residual, interior_density
from vdwshock.nonlinear_front import (gradient_jump, psi_root, rarefaction_profile, shock_locus,
                                      shock_strength, transport_residual)
from vdwshock.regular_reflection import F_eval, criterion, tan_phi_r_branches
from vdwshock.shock_relations import IncidentShockInput
from vdwshock.thermo import GasModel, ThermoState, reference_constants, sound_speed, thermo_eval

NAN, INF = math.nan, math.inf
GAS = GasModel(1.4)
BETA_SHOCK, ALPHA = math.radians(67.5), math.pi / 4.0  # a ray on the shock side
BETA_FAN = math.radians(30.0)  # a ray on the rarefaction side
STATE2 = (0.5, 0.2, 0.1)


# the library's own values, worked out when a test first runs, not on import
@functools.cache
def ref():
    return reference_constants(1.0, 1.0, GAS)


@functools.cache
def geom():
    return inner_geometry(GAS, ref())


def outside():
    return make_point(1.05 * ref().a0, ALPHA + 0.2, ref())  # in Omega2


def _one(*_):
    return 1.0


CASES = [
    # (id, call, error type, message prefix)
    ("make_point zeta < 0", lambda: make_point(-1.0, 1.0, ref()),
     DomainError, "similarity radius must be nonnegative"),
    ("make_point zeta nan", lambda: make_point(NAN, 1.0, ref()),
     DomainError, "similarity radius must be nonnegative"),
    ("make_point zeta inf", lambda: make_point(INF, 1.0, ref()),
     DomainError, "similarity radius must be nonnegative and finite"),
    ("eigenvalues zeta <= 0",
     lambda: eigenvalues_and_type(SelfSimilarPoint(0.0, 1.0, 0.0), PseudoFlowState(0.5, 0.0, 1.0)),
     DomainError, "eigenvalues need zeta > 0"),
    ("eigenvalues (U-zeta)^2 = a^2",
     lambda: eigenvalues_and_type(SelfSimilarPoint(1.0, 1.0, 1.0), PseudoFlowState(2.0, 0.5, 1.0)),
     DomainError, "acoustic eigenvalues undefined at (U-zeta)^2 = a^2"),
    ("expansion_fan theta' = 0", lambda: expansion_fan(1.0, 0.0, geom()),
     DomainError, "fan profile needs theta' != 0"),
    ("expansion_fan x nan", lambda: expansion_fan(NAN, 1.0, geom()),
     DomainError, "fan profile needs finite x and theta'"),
    ("expansion_fan theta' inf", lambda: expansion_fan(1.0, INF, geom()),
     DomainError, "fan profile needs finite x and theta'"),
    ("similarity_residual x <= 0", lambda: similarity_residual(_one, _one, _one, 0.0, 1.3, geom()),
     DomainError, "similarity residual needs x > 0"),
    ("similarity_residual theta' = 0",
     lambda: similarity_residual(_one, _one, _one, 1.0, 0.0, geom()),
     DomainError, "similarity residual needs theta' != 0"),
    ("stretch epsilon nan", lambda: stretch(make_point(1.0, 1.0, ref()), 0.5, NAN, ref()),
     DomainError, "stretching needs epsilon > 0"),
    ("stretch epsilon inf", lambda: stretch(make_point(1.0, 1.0, ref()), 0.5, INF, ref()),
     DomainError, "stretching needs a finite epsilon"),
    # (xi - kappa0)/epsilon overflows: this returned r' = inf
    ("stretch r' overflows", lambda: stretch(make_point(10.0, 1.0, ref()), 0.5, 1e-320, ref()),
     DomainError, "stretched point leaves the float range at epsilon=1e-320"),
    ("busemann_variable < 0", lambda: busemann_variable(-0.1),
     DomainError, "xi/kappa0 must lie in [0, 1]"),
    ("busemann_variable nan", lambda: busemann_variable(NAN),
     DomainError, "xi/kappa0 must lie in [0, 1]"),
    ("density_pde_residual h <= 0",
     lambda: density_pde_residual(_one, 0.5 * ref().kappa0, 1.0, 0.0, ref()),
     DomainError, "step must be positive"),
    ("density_pde_residual xi = kappa0",
     lambda: density_pde_residual(_one, ref().kappa0, 1.0, 1e-3, ref()),
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
     lambda: rarefaction_profile(5.0, 1.0, BETA_FAN, ALPHA, -1.0, GAS, ref(), STATE2),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=-1.0"),
    ("rarefaction_profile epsilon inf",
     lambda: rarefaction_profile(5.0, 1.0, BETA_FAN, ALPHA, INF, GAS, ref(), STATE2),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=inf"),
    ("rarefaction_profile t < 0",
     lambda: rarefaction_profile(5.0, -1.0, BETA_FAN, ALPHA, 0.1, GAS, ref(), STATE2),
     DomainError, "rarefaction profile needs t > 0"),
    ("rarefaction_profile t nan",
     lambda: rarefaction_profile(5.0, NAN, BETA_FAN, ALPHA, 0.1, GAS, ref(), STATE2),
     DomainError, "rarefaction profile needs t > 0"),
    ("rarefaction_profile r inf",
     lambda: rarefaction_profile(INF, 1.0, BETA_FAN, ALPHA, 0.1, GAS, ref(), STATE2),
     DomainError, "phase root needs a finite r, got inf"),
    # these returned the uniform state without looking at the gas
    ("rarefaction_profile gas ahead of the front",
     lambda: rarefaction_profile(10.0, 1.0, BETA_FAN, ALPHA, 0.1, GasModel(0.5, 2.0), ref(),
                                 STATE2),
     DomainError, "gamma must exceed 1, got 0.5"),
    ("rarefaction_profile gas at epsilon = 0",
     lambda: rarefaction_profile(0.5, 1.0, BETA_FAN, ALPHA, 0.0, GasModel(NAN), ref(), STATE2),
     DomainError, "gamma must exceed 1, got nan"),
    ("gradient_jump r <= 0", lambda: gradient_jump(0.0, GAS, 1.0),
     DomainError, "gradient jump needs r > 0"),
    ("gradient_jump r inf", lambda: gradient_jump(INF, GAS, 1.0),
     DomainError, "gradient jump needs a finite r"),
    ("gradient_jump rho0 < 0", lambda: gradient_jump(1.0, GAS, -1.0),
     DomainError, "gradient jump needs rho0 > 0"),
    ("gradient_jump rho0 inf", lambda: gradient_jump(1.0, GAS, INF),
     DomainError, "gradient jump needs a finite rho0"),
    ("shock_locus t < 0", lambda: shock_locus(-1.0, BETA_SHOCK, ALPHA, 0.1, GAS, ref()),
     DomainError, "shock locus needs t > 0"),
    ("shock_locus t nan", lambda: shock_locus(NAN, BETA_SHOCK, ALPHA, 0.1, GAS, ref()),
     DomainError, "shock locus needs t > 0"),
    ("shock_locus epsilon < 0", lambda: shock_locus(1.0, BETA_SHOCK, ALPHA, -1.0, GAS, ref()),
     DomainError, "shock strength must be nonnegative and finite, got epsilon=-1.0"),
    ("shock_locus epsilon inf", lambda: shock_locus(1.0, BETA_SHOCK, ALPHA, INF, GAS, ref()),
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
    ("F_eval tan^2 < 0", lambda: F_eval(1.1, -1.0, GAS),
     DomainError, "tan_sq_phi_i must be nonnegative"),
    ("F_eval tan^2 nan", lambda: F_eval(1.1, NAN, GAS),
     DomainError, "tan_sq_phi_i must be nonnegative"),
    ("F_eval tan^2 inf", lambda: F_eval(1.1, INF, GAS),
     DomainError, "tan_sq_phi_i must be nonnegative and finite"),
    # check_reference's positivity test must reject a zero of either sign
    ("reference_constants rho0 = 0", lambda: reference_constants(0.0, 1.0, GAS),
     DomainError, "reference density and pressure must be positive"),
    ("reference_constants rho0 = -0", lambda: reference_constants(-0.0, 1.0, GAS),
     DomainError, "reference density and pressure must be positive"),
    ("reference_constants p0 = 0", lambda: reference_constants(1.0, 0.0, GAS),
     DomainError, "reference density and pressure must be positive"),
    ("reference_constants p0 = -0", lambda: reference_constants(1.0, -0.0, GAS),
     DomainError, "reference density and pressure must be positive"),
    ("sound_speed density <= 0", lambda: sound_speed(ThermoState(0.0, 1.0), GAS),
     DomainError, "density must be positive"),
    ("sound_speed density nan", lambda: sound_speed(ThermoState(NAN, 1.0), GAS),
     DomainError, "density must be positive"),
    ("sound_speed pressure inf", lambda: sound_speed(ThermoState(1.0, INF), GAS),
     DomainError, "density and pressure must be finite"),
    ("thermo_eval density nan", lambda: thermo_eval(ThermoState(NAN, 1.0), GAS),
     DomainError, "density must be positive"),
    # these returned a point with a NaN angle, nan or (beta = inf) raised a bare ValueError
    ("make_point theta nan", lambda: make_point(1.0, NAN, ref()),
     DomainError, "a point needs a finite theta, got nan"),
    ("tan_phi_r_branches tan nan", lambda: tan_phi_r_branches(1.2, NAN, GAS),
     DomainError, "reflected angle needs a finite tan_phi_i, got nan"),
    ("interior_density beta inf", lambda: interior_density(0.5, INF, 0.6),
     DomainError, "interior density needs a finite beta, got inf"),
    # s**mu of a negative s is complex: this raised a bare TypeError
    ("interior_density s < 0", lambda: interior_density(-0.5, 0.1, 0.7),
     DomainError, "interior density needs s >= 0, got -0.5"),
    # a mu outside the corner exponent's [1/2, 1] raised a bare ValueError (cos(mu*pi) of
    # an infinite mu*pi), ZeroDivisionError (0.0**mu, mu < 0) or OverflowError (s**mu)
    ("interior_density mu huge", lambda: interior_density(0.5, 0.1, 1e308),
     DomainError, "interior density needs mu in [1/2, 1], got 1e+308"),
    ("interior_density mu < 0 at s = 0", lambda: interior_density(0.0, 0.1, -0.5),
     DomainError, "interior density needs mu in [1/2, 1], got -0.5"),
    ("interior_density s**mu overflows", lambda: interior_density(1e10, 0.1, 1e300),
     DomainError, "interior density needs mu in [1/2, 1], got 1e+300"),
    # s outside the Busemann disk [0, 1]: these returned 2.3556, 2.5 and nan
    ("interior_density s > 1", lambda: interior_density(2.0, 0.1, 0.7),
     DomainError, "interior density needs s <= 1, got 2.0"),
    ("interior_density s huge", lambda: interior_density(1e200, 0.1, 1.0),
     DomainError, "interior density needs s <= 1, got 1e+200"),
    ("interior_density s near the float limit", lambda: interior_density(1e308, 0.1, 1.0),
     DomainError, "interior density needs s <= 1, got 1e+308"),
]


@pytest.mark.parametrize("call, error, prefix", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_public_input_check(call, error, prefix):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value).startswith(prefix), str(info.value)


# the arguments of one valid call of every public function that takes a float: each float
# argument in turn is replaced by NaN, inf and -inf, and each of these must raise a DomainError
NON_FINITE_TARGETS = {
    # geometry
    "incident_locus": lambda: (1.0, ref()),
    "make_point": lambda: (1.0, 1.0, ref()),
    "reflected_line": lambda: (1.0, ALPHA, ref()),
    "region_classify": lambda: (outside(), ALPHA, ref()),
    # inner_singular
    "expansion_fan": lambda: (-1.0, 1.0, geom()),
    "inner_geometry": lambda: (GAS, ref(), 0.1),
    "inner_rh_residual": lambda: (geom(), 0.5, 1.0, 2.0, 0.1),
    "reflected_shock_locus": lambda: (0.5, geom()),
    "shock_loci": lambda: (0.5, -1.0, geom()),
    "similarity_residual": lambda: (_one, _one, _one, 1.0, 1.3, geom()),
    "stretch": lambda: (outside(), 0.5, 0.1, ref()),
    # linear_acoustics
    "busemann_variable": lambda: (0.5,),
    "corner_exponent": lambda: (ALPHA,),
    "density_pde_residual": lambda: (_one, 0.5 * ref().kappa0, 1.0, 1e-3, ref()),
    "diffracted_density": lambda: (make_point(0.5 * ref().a0, ALPHA + 0.2, ref()), ALPHA, ref()),
    "diffracted_density_xi": lambda: (0.5, 1.0, ALPHA, ref()),
    "first_order_piecewise": lambda: (outside(), ALPHA, ref()),
    "interior_density": lambda: (0.5, 0.3, 0.6),
    "near_front_coefficient": lambda: (ALPHA + BETA_FAN, ALPHA),
    "state1_expansion": lambda: (1.0, GAS, ref()),
    "state2_expansion": lambda: (1.0, ALPHA, ref()),
    # nonlinear_front; r = 0.5 lies behind the front at t = 1
    "c_beta": lambda: (BETA_SHOCK, ALPHA),
    "classify_front": lambda: (BETA_SHOCK, ALPHA),
    "gradient_jump": lambda: (1.0, GAS, 1.0),
    "psi_root": lambda: (1.0, 1.0, -0.5, 0.1, GAS),
    "rarefaction_profile": lambda: (0.5, 1.0, BETA_FAN, ALPHA, 0.1, GAS, ref(), STATE2),
    "shock_locus": lambda: (1.0, BETA_SHOCK, ALPHA, 0.1, GAS, ref()),
    "shock_strength": lambda: (BETA_SHOCK, ALPHA, 0.1, GAS),
    "transport_residual": lambda: (_one, 1.0, 0.0, 0.1, GAS),
    # regular_reflection; tan(phi_i) = 2 is above the detachment angle
    "F_eval": lambda: (1.1, 0.5, GAS),
    "beta_r_from_angles": lambda: (1.2, 2.0, -0.5, GAS),
    "criterion": lambda: (1.2, GAS),
    "cubic_coefficients": lambda: (1.2, GAS),
    "solve_regular_reflection": lambda: (IncidentShockInput(1.2, 1.2), 0.3, GAS),
    "tan_phi_r_branches": lambda: (1.2, 2.0, GAS),
    # shock_relations
    "admissible_beta_bounds": lambda: (GAS, 1.2),
    "normal_incident_state": lambda: (1.2, GAS, ref()),
    # thermo
    "reference_constants": lambda: (1.0, 1.0, GAS),
    "sound_speed": lambda: (ThermoState(1.0, 1.0), GAS, 1.0),
    "thermo_eval": lambda: (ThermoState(1.0, 1.0), GAS, 1.0),
}

#: public float-taking functions without a row, each with the reason (none at present)
NON_FINITE_EXEMPT: dict[str, str] = {}


def _float_parameters(function):
    return [p.name for p in inspect.signature(function).parameters.values()
            if p.annotation in ("float", "float | None")]


def test_every_public_float_function_has_a_row():
    # the records (named tuples) hold floats unchecked; the functions taking them check them
    public = {name for name in vdwshock.__all__
              if inspect.isfunction(getattr(vdwshock, name))
              and _float_parameters(getattr(vdwshock, name))}
    assert set(NON_FINITE_TARGETS) | set(NON_FINITE_EXEMPT) == public
    assert not set(NON_FINITE_TARGETS) & set(NON_FINITE_EXEMPT)


@pytest.mark.parametrize("name", sorted(NON_FINITE_TARGETS))
def test_public_function_rejects_non_finite_floats(name):
    # before, a NaN ray gave C = nan and the kind "shock", a NaN theta made a point, and
    # tan_phi_r_branches, interior_density and reflected_shock_locus returned nan
    function, args = getattr(vdwshock, name), NON_FINITE_TARGETS[name]()
    bound = inspect.signature(function).bind(*args).arguments
    assert all(type(bound.get(p)) is float for p in _float_parameters(function))  # all swept
    function(*args)  # the valid call goes through
    wrong = []
    for i, arg in enumerate(args):
        if type(arg) is not float:
            continue
        for bad in (NAN, INF, -INF):
            try:
                function(*args[:i], bad, *args[i + 1:])
                got = "no error"
            except DomainError:
                continue
            except Exception as exc:
                got = type(exc).__name__
            wrong.append(f"argument {i} = {bad}: {got}")
    assert wrong == []


# one valid call of each public function that reads float fields of a record: each field it
# reads is replaced in turn by NaN, inf and -inf, and each must raise a DomainError naming it
RECORD_ARGS = {  # the arguments of each valid call below
    "eigen": lambda: (SelfSimilarPoint(1.0, 1.0, 1.0), PseudoFlowState(0.5, 0.0, 1.0)),
    "linear": lambda: (InnerPoint(-1.0, 0.5, None), ref()),
    "reflected": lambda: (InnerPoint(-1.0, 0.5, -1.0), geom(), "reflected"),
    "diffracted": lambda: (InnerPoint(-1.0, 0.5, -1.0), geom(), "diffracted"),
}
RECORD_FIELDS = {
    # id: (function, its RECORD_ARGS, position of the record, field, the message's first words)
    "eigenvalues_and_type zeta": (eigenvalues_and_type, "eigen", 0, "zeta", "eigenvalue analysis"),
    "eigenvalues_and_type U": (eigenvalues_and_type, "eigen", 1, "U", "eigenvalue analysis"),
    "eigenvalues_and_type V": (eigenvalues_and_type, "eigen", 1, "V", "eigenvalue analysis"),
    "eigenvalues_and_type a": (eigenvalues_and_type, "eigen", 1, "a", "eigenvalue analysis"),
    "inner_linear r_prime": (inner_linear, "linear", 0, "r_prime", "inner linear field"),
    "inner_linear theta_prime": (inner_linear, "linear", 0, "theta_prime", "inner linear field"),
    "inner_weak_solution reflected r_prime":
        (inner_weak_solution, "reflected", 0, "r_prime", "inner weak solution"),
    "inner_weak_solution reflected theta_prime":
        (inner_weak_solution, "reflected", 0, "theta_prime", "inner weak solution"),
    "inner_weak_solution diffracted r_prime":
        (inner_weak_solution, "diffracted", 0, "r_prime", "inner weak solution"),
    "inner_weak_solution diffracted theta_prime":
        (inner_weak_solution, "diffracted", 0, "theta_prime", "inner weak solution"),
    "inner_weak_solution diffracted eta":
        (inner_weak_solution, "diffracted", 0, "eta", "inner weak solution"),
}


@pytest.mark.parametrize("function, kind, position, field, where", RECORD_FIELDS.values(),
                         ids=RECORD_FIELDS)
def test_record_field_rejects_non_finite(function, kind, position, field, where):
    # before, eigenvalues_and_type with a NaN U returned (nan, None, None, "sonic"), inner_linear
    # with a NaN r' returned nan and inner_weak_solution with a NaN r' returned 2.0
    args = RECORD_ARGS[kind]()
    function(*args)  # the valid call goes through
    wrong = []
    for bad in (NAN, INF, -INF):
        record = args[position]._replace(**{field: bad})
        try:
            function(*args[:position], record, *args[position + 1:])
            got = "no error"
        except DomainError as exc:
            if str(exc) == f"{where} needs a finite {field}, got {bad}":
                continue
            got = str(exc)
        wrong.append(f"{field} = {bad}: {got}")
    assert wrong == []
