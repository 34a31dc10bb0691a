import math

import pytest
from hypothesis import assume, given, strategies as st

from vdwshock.errors import AdmissibilityError, DomainError
from vdwshock.regular_reflection import criterion, solve_regular_reflection
from vdwshock.shock_relations import (
    IncidentShockInput,
    _jump,
    _within,
    admissible_beta_bounds,
    check_incident_beta,
    normal_incident_state,
)
from vdwshock.thermo import (
    GasModel,
    ThermoState,
    reference_constants,
    sound_speed,
    thermo_eval,
)


def ideal_incident_pressure_ratio(beta, gamma):
    # separately coded ideal-gas jump for the zero-covolume reduction checks
    return ((gamma + 1.0) * beta - (gamma - 1.0)) / ((gamma + 1.0) - (gamma - 1.0) * beta)


class TestIncidentJump:
    """The jump kernel with the upstream covolume fraction btilde of state 0.

    It returns (pressure ratio, deflection tangent, M_up^2, M_down^2).
    """

    def test_vanishing_strength_limit(self):
        p_ratio, tan_def, _, _ = _jump(1.0 + 1e-12, math.tan(math.pi / 3), 1.4, 0.0)
        assert p_ratio == pytest.approx(1.0, abs=1e-11)
        assert tan_def == pytest.approx(0.0, abs=1e-11)

    def test_ideal_hand_values(self):
        p_ratio, tan_def, m_up_sq, m_down_sq = _jump(2.0, math.tan(math.pi / 4), 1.4, 0.0)
        assert p_ratio == pytest.approx(2.75, rel=1e-14)
        assert tan_def == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert m_up_sq == pytest.approx(5.0, rel=1e-13)
        assert m_down_sq == pytest.approx(10.0 / 4.4, rel=1e-13)

    def test_covolume_hand_values(self):
        p_ratio = _jump(2.0, math.tan(math.pi / 4), 1.4, 0.1)[0]
        assert p_ratio == pytest.approx(4.0 / 1.2, rel=1e-14)

    def test_compression(self, covolume_gas):
        p_ratio, _, m_up_sq, _ = _jump(1.5, math.tan(0.6), covolume_gas.gamma, covolume_gas.btilde)
        assert p_ratio > 1.0
        assert m_up_sq > 0.0

    def test_beta_above_bound_rejected(self, covolume_gas):
        upper = admissible_beta_bounds(covolume_gas)[1]
        with pytest.raises(AdmissibilityError):
            check_incident_beta(upper * 1.01, covolume_gas)

    def test_angle_rejected(self, ideal_gas):
        with pytest.raises(DomainError, match="incidence angle"):
            solve_regular_reflection(IncidentShockInput(2.0, math.pi / 2), 0.5, ideal_gas)

    @given(beta=st.floats(1.001, 5.5), phi=st.floats(0.05, 1.5))
    def test_zero_covolume_reduces_to_ideal(self, beta, phi):
        t = math.tan(phi)
        p_ratio, tan_def, _, _ = _jump(beta, t, 1.4, 0.0)
        assert p_ratio == pytest.approx(ideal_incident_pressure_ratio(beta, 1.4), rel=1e-13)
        assert tan_def == pytest.approx((beta - 1.0) * t / (1.0 + beta * t * t), rel=1e-13)

    def test_pressure_ratio_increases_with_btilde(self):
        ratios = [_jump(1.6, math.tan(0.7), 1.4, bt)[0] for bt in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_epsilon_field(self):
        inp = IncidentShockInput(1.25, 0.5)
        assert inp.epsilon == pytest.approx(0.25, rel=1e-15)


class TestNormalIncidentConsistency:
    @given(beta=st.floats(1.001, 2.6), phi=st.floats(0.05, 1.5), btilde=st.floats(0.0, 0.35))
    def test_head_on_and_oblique_pressure_agree(self, beta, phi, btilde):
        gas = GasModel(1.4, btilde)
        assume(beta < 0.999 * (gas.gamma + 1.0) / (gas.gamma - 1.0 + 2.0 * btilde))
        ref = reference_constants(1.0, 1.0, gas)
        p_norm, _ = normal_incident_state(beta, gas, ref)
        p_obl = _jump(beta, math.tan(phi), gas.gamma, gas.btilde)[0]
        assert p_norm == pytest.approx(p_obl, rel=1e-13)

    def test_induced_speed_ideal(self, ideal_gas, ideal_ref):
        p1, u1 = normal_incident_state(2.0, ideal_gas, ideal_ref)
        assert p1 == pytest.approx(2.75, rel=1e-14)
        assert u1 == pytest.approx(0.9354143466934853, rel=1e-12)

    def test_induced_speed_covolume(self):
        gas = GasModel(1.4, 0.1)
        ref = reference_constants(1.0, 1.0, gas)
        p1, u1 = normal_incident_state(2.0, gas, ref)
        assert p1 == pytest.approx(10.0 / 3.0, rel=1e-14)
        assert u1 == pytest.approx(1.0801234497346432, rel=1e-12)

    def test_vanishing_strength(self, ideal_gas, ideal_ref):
        _, u1 = normal_incident_state(1.0 + 1e-13, ideal_gas, ideal_ref)
        assert u1 == pytest.approx(0.0, abs=1e-6)


def hugoniot_pressure(rho1, p1, rho2, gas):
    """Pressure behind a shock from (rho1, p1) to rho2, by bisection on the
    enthalpy-Hugoniot relation h2 - h1 = (p2-p1)(V1+V2)/2 of the covolume EOS."""
    v1, v2 = 1.0 / rho1, 1.0 / rho2

    def hugoniot(p2):
        _, h1, _ = thermo_eval(ThermoState(rho1, p1), gas)
        _, h2, _ = thermo_eval(ThermoState(rho2, p2), gas)
        return h2 - h1 - (p2 - p1) * (v1 + v2) / 2.0

    lo = hi = p1
    while hugoniot(hi) < 0.0:
        hi *= 2.0
    while hugoniot(lo) > 0.0:
        lo /= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if hugoniot(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def reflected_primitive_oracle(beta_i, beta_r, phi_r, gas):
    """Independent jump solve from conservation primitives.

    Pressure behind the reflected shock comes from hugoniot_pressure; Mach
    numbers follow from the momentum balance and the EOS sound speeds; the
    deflection from normal-component reduction at preserved tangential
    velocity.
    """
    g, bt = gas.gamma, gas.btilde
    rho1 = beta_i
    p1 = ((g + 1.0) * beta_i - (g - 1.0) - 2.0 * bt * beta_i) / (
        (g + 1.0) - (g - 1.0) * beta_i - 2.0 * bt * beta_i
    )
    rho2 = beta_r * rho1
    p2 = hugoniot_pressure(rho1, p1, rho2, gas)

    w1_sq = (p2 - p1) * beta_r / (rho1 * (beta_r - 1.0))
    a1 = sound_speed(ThermoState(rho1, p1), gas)
    a2 = sound_speed(ThermoState(rho2, p2), gas)
    tan = math.tan(phi_r)
    m1_sq = w1_sq * (1.0 + tan * tan) / a1**2
    q2_sq = w1_sq / beta_r**2 + w1_sq * tan * tan
    m2_sq = q2_sq / a2**2
    tan_dr = math.tan(math.atan(beta_r * tan) - phi_r)
    return p2 / p1, m1_sq, m2_sq, tan_dr


class TestReflectedJump:
    """The jump kernel on state 1, whose covolume fraction is btilde*beta_i."""

    def test_vanishing_strength_limit(self):
        p_ratio, tan_def, _, _ = _jump(1.0 + 1e-12, math.tan(0.7), 1.4, 0.2 * 1.5)
        assert p_ratio == pytest.approx(1.0, abs=1e-11)
        assert tan_def == pytest.approx(0.0, abs=1e-11)

    def test_zero_covolume_matches_incident_form(self):
        p_ratio, tan_def, _, _ = _jump(2.0, math.tan(math.pi / 4), 1.4, 0.0)
        assert p_ratio == pytest.approx(2.75, rel=1e-14)
        assert tan_def == pytest.approx(1.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize(
        "beta_i, beta_r, phi_r, btilde",
        [
            (2.0, 1.5, math.pi / 6, 0.2),
            (1.5, 1.8, 0.9, 0.0),
            (2.5, 1.2, 0.4, 0.15),
        ],
    )
    def test_primitive_oracle_agreement(self, beta_i, beta_r, phi_r, btilde):
        gas = GasModel(1.4, btilde)
        p_jump, tan_jump, m_up_sq, m_down_sq = _jump(beta_r, math.tan(phi_r), 1.4, btilde * beta_i)
        p_ratio, m1_sq, m2_sq, tan_dr = reflected_primitive_oracle(beta_i, beta_r, phi_r, gas)
        assert p_jump == pytest.approx(p_ratio, rel=1e-11)
        assert m_up_sq == pytest.approx(m1_sq, rel=1e-11)
        assert m_down_sq == pytest.approx(m2_sq, rel=1e-11)
        assert tan_jump == pytest.approx(tan_dr, rel=1e-11)

    def test_beta_r_bound_rejected(self):
        upper = admissible_beta_bounds(GasModel(1.4, 0.3), beta_i=1.5)[1]
        with pytest.raises(DomainError, match="pressure-ratio denominator vanishes"):
            _jump(upper * 1.01, math.tan(0.5), 1.4, 0.3 * 1.5)


class TestSolveAgainstPrimitiveOracle:
    """The reflected jump inside solve_regular_reflection rides on state 1, so
    its covolume fraction is btilde*beta_i; the oracle knows only the EOS."""

    CASES = pytest.mark.parametrize(
        "beta_i, alpha, btilde",
        [(1.3, 0.4, 0.0), (1.6, 0.7, 0.2), (2.0, 0.3, 0.2)],
    )

    @staticmethod
    def solve(beta_i, alpha, btilde):
        gas = GasModel(1.4, btilde)
        phi_i = 0.5 * (criterion(beta_i, gas).phi_star + math.pi / 2.0)
        sol = solve_regular_reflection(IncidentShockInput(beta_i, phi_i), alpha, gas)
        p_ratio, _, m2_sq, _ = reflected_primitive_oracle(beta_i, sol.beta_r, sol.phi_r, gas)
        p1 = hugoniot_pressure(1.0, 1.0, beta_i, gas)
        return gas, phi_i, sol, p1, p1 * p_ratio, m2_sq

    @CASES
    def test_state2_pressure_and_mach(self, beta_i, alpha, btilde):
        _, _, sol, _, p2, m2_sq = self.solve(beta_i, alpha, btilde)
        assert sol.state2[3] == pytest.approx(p2, rel=1e-11)
        assert sol.M2_sq == pytest.approx(m2_sq, rel=1e-11)

    @CASES
    def test_state2_density_and_velocity(self, beta_i, alpha, btilde):
        # behind the reflected shock the flow runs along the wall at the
        # wall-point pseudo-speed q0 less its own pseudo-speed q2
        gas, phi_i, sol, p1, p2, m2_sq = self.solve(beta_i, alpha, btilde)
        w0_sq = (p1 - 1.0) * beta_i / (beta_i - 1.0)  # normal momentum, rho0 = p0 = 1
        q0 = math.sqrt(w0_sq * (1.0 + math.tan(phi_i) ** 2))
        rho2 = beta_i * sol.beta_r
        q2 = math.sqrt(m2_sq) * sound_speed(ThermoState(rho2, p2), gas)
        assert sol.state2[:3] == pytest.approx(
            (rho2, (q0 - q2) * math.cos(alpha), (q0 - q2) * math.sin(alpha)), rel=1e-11
        )


SLACK_GAS = GasModel(1.4, 0.1)
IN_SLACK = 1.0 + 1e-12
# at exactly its bound this gas's pressure-ratio denominator rounds to a tiny
# positive number instead of 0
ROUNDING_GAS = GasModel(2.0, 0.2)


def upper(gas, beta_i=None):
    """The band's upper bound, worked out when a test runs: an incident one, or a reflected one."""
    return admissible_beta_bounds(gas, beta_i=beta_i)[1]


class TestSlackBand:
    """Density ratios in [upper, upper*(1 + ENDPOINT_SLACK)] pass the
    slackened admissibility check but have no positive pressure ratio."""

    def test_inside_the_slackened_band(self):
        assert _within(upper(SLACK_GAS) * IN_SLACK, upper(SLACK_GAS))
        assert _within(upper(SLACK_GAS, 1.5) * IN_SLACK, upper(SLACK_GAS, 1.5))
        assert _within(upper(ROUNDING_GAS), upper(ROUNDING_GAS))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _jump(upper(SLACK_GAS) * IN_SLACK, math.tan(0.5), 1.4, 0.1),
            lambda: _jump(upper(SLACK_GAS, 1.5) * IN_SLACK, math.tan(0.5), 1.4, 0.1 * 1.5),
            lambda: _jump(upper(ROUNDING_GAS), math.tan(0.5), 2.0, 0.2),
            lambda: normal_incident_state(
                upper(SLACK_GAS) * IN_SLACK, SLACK_GAS, reference_constants(1.0, 1.0, SLACK_GAS)
            ),
            lambda: normal_incident_state(
                upper(ROUNDING_GAS), ROUNDING_GAS, reference_constants(1.0, 1.0, ROUNDING_GAS)
            ),
            lambda: solve_regular_reflection(
                IncidentShockInput(upper(SLACK_GAS), 1.2), 0.5, SLACK_GAS
            ),
            lambda: solve_regular_reflection(
                IncidentShockInput(upper(SLACK_GAS) * IN_SLACK, 1.2), 0.5, SLACK_GAS
            ),
        ],
        ids=["incident", "reflected", "incident_at_bound", "normal", "normal_at_bound",
             "solve_at_bound", "solve_in_slack"],
    )
    def test_rejected_as_domain_error(self, call):
        with pytest.raises(DomainError, match="pressure-ratio denominator vanishes"):
            call()


class TestAdmissibleBounds:
    def test_ideal_upper(self, ideal_gas):
        assert admissible_beta_bounds(ideal_gas) == (1.0, pytest.approx(6.0, rel=1e-14))

    def test_covolume_upper_explains_blanks(self):
        _, upper = admissible_beta_bounds(GasModel(1.4, 0.5))
        assert upper == pytest.approx(2.4 / 1.4, rel=1e-14)
        assert upper < 1.8  # the cells at beta_i >= 1.8 are blank for btilde = 0.5

    def test_near_isothermal_limit_grows(self):
        _, upper = admissible_beta_bounds(GasModel(1.0 + 1e-9, 0.0))
        assert upper > 1e8

    def test_reflected_bound(self):
        _, upper = admissible_beta_bounds(GasModel(1.4, 0.2), beta_i=2.0)
        assert upper == pytest.approx(2.4 / (0.4 + 0.8), rel=1e-14)
