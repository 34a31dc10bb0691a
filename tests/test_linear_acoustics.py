import math

import pytest
from hypothesis import given, settings, strategies as st

from vdwshock import checks
from vdwshock.errors import DomainError, RegionError, SingularityError
from vdwshock.geometry import make_point, reflected_line
from vdwshock.linear_acoustics import (
    TAG_DIFFRACTION,
    TAG_NEAR_FRONT,
    TAG_PIECEWISE,
    atan_zero_pi,
    busemann_variable,
    corner_exponent,
    density_pde_residual,
    density_rows,
    diffracted_density_xi,
    first_order_piecewise,
    interior_density,
    near_front_coefficient,
    state1_expansion,
    state2_expansion,
)
from vdwshock.shock_relations import normal_incident_state
from vdwshock.thermo import GasModel, reference_constants

ALPHA = math.pi / 4


def richardson_slope(errors, steps):
    return [
        math.log(errors[i] / errors[i + 1]) / math.log(steps[i] / steps[i + 1])
        for i in range(len(errors) - 1)
    ]


def overall_slope(errors, steps):
    # endpoint fit across the whole sequence, robust to a pre-asymptotic
    # wobble at the coarsest step
    return math.log(errors[0] / errors[-1]) / math.log(steps[0] / steps[-1])


class TestBranchArctangent:
    def test_quadrants(self):
        assert atan_zero_pi(1.0, 1.0) == pytest.approx(math.pi / 4)
        assert atan_zero_pi(-1.0, 1.0) == pytest.approx(3 * math.pi / 4)
        assert atan_zero_pi(1.0, -1.0) == pytest.approx(3 * math.pi / 4)
        assert atan_zero_pi(-1.0, -1.0) == pytest.approx(math.pi / 4)

    def test_tie_resolution_by_denominator(self):
        assert atan_zero_pi(0.0, 2.0) == 0.0
        assert atan_zero_pi(0.0, -2.0) == math.pi
        assert atan_zero_pi(-0.0, -2.0) == math.pi


class TestStateOneExpansion:
    def test_ideal_coefficients(self, ideal_gas, ideal_ref):
        c = state1_expansion(1.0, ideal_gas, ideal_ref)
        assert c.rho_1 == 1.0
        assert c.p_1 == pytest.approx(1.4, rel=1e-14)
        assert c.a_1 == pytest.approx(0.2, rel=1e-14)
        assert ideal_ref.kappa0 == 1.0

    def test_vertical_ray(self, ideal_gas, ideal_ref):
        c = state1_expansion(math.pi / 2, ideal_gas, ideal_ref)
        assert c.U_1 == pytest.approx(0.0, abs=1e-16)
        assert c.V_1 == pytest.approx(-ideal_ref.kappa0, rel=1e-14)

    def test_covolume_coefficients(self, covolume_gas, covolume_ref):
        c = state1_expansion(1.0, covolume_gas, covolume_ref)
        assert c.p_1 == pytest.approx(2.0, rel=1e-14)
        assert c.a_1 == pytest.approx(covolume_ref.kappa0 / 1.4, rel=1e-13)

    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    def test_pressure_expansion_order(self, btilde):
        # first-order truncation error must shrink like epsilon^2, second
        # order like epsilon^3
        gas = GasModel(1.4, btilde)
        ref = reference_constants(1.0, 1.0, gas)
        c = state1_expansion(1.0, gas, ref)
        eps_list = (1e-1, 1e-2, 1e-3)
        err1, err2 = [], []
        for eps in eps_list:
            p_exact, _ = normal_incident_state(1.0 + eps, gas, ref)
            err1.append(abs(p_exact - (1.0 + c.p_1 * eps)))
            err2.append(abs(p_exact - (1.0 + c.p_1 * eps + c.p_2 * eps * eps)))
        assert overall_slope(err1, eps_list) >= 1.9
        assert overall_slope(err2, eps_list) >= 2.9

    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    def test_speed_expansion_order(self, btilde):
        gas = GasModel(1.4, btilde)
        ref = reference_constants(1.0, 1.0, gas)
        c = state1_expansion(0.0, gas, ref)  # U coefficient on the axis is kappa0
        eps_list = (1e-1, 1e-2, 1e-3)
        errs = []
        for eps in eps_list:
            _, u_exact = normal_incident_state(1.0 + eps, gas, ref)
            errs.append(abs(u_exact / ref.c0 - c.U_1 * eps))
        assert overall_slope(errs, eps_list) >= 1.9

    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    def test_entropy_cubic_coefficient(self, btilde):
        gas = GasModel(1.4, btilde)
        ref = reference_constants(1.0, 1.0, gas)
        c = state1_expansion(1.0, gas, ref)
        eps = 1e-2
        beta = 1.0 + eps
        p_ratio, _ = normal_incident_state(beta, gas, ref)
        s_exact = math.log(p_ratio) + 1.4 * math.log((1.0 / beta - btilde) / (1.0 - btilde))
        assert s_exact / (c.s_3 * eps**3) == pytest.approx(1.0, abs=0.05)


class TestStateTwoExpansion:
    def test_wall_parallel_at_wedge(self, ideal_ref):
        alpha = 0.6
        rho, u, v = state2_expansion(alpha, alpha, ideal_ref)
        assert rho == 2.0
        assert v == 0.0
        assert u == pytest.approx(2.0 * math.cos(alpha), rel=1e-14)

    def test_hand_value(self, ideal_ref):
        _, u, _ = state2_expansion(math.pi / 4, math.pi / 6, ideal_ref)
        assert u == pytest.approx(1.6730326074756159, rel=1e-13)

    @given(theta=st.floats(0.6, 1.1))
    @settings(max_examples=30)
    def test_speed_magnitude_identity(self, theta):
        ref = reference_constants(1.0, 1.0, GasModel(1.4, 0.3))
        alpha = 0.55
        _, u, v = state2_expansion(theta, alpha, ref)
        assert u * u + v * v == pytest.approx(
            4.0 * ref.kappa0**2 * math.cos(alpha) ** 2, rel=1e-12
        )


class TestPiecewiseField:
    def test_region_values(self, ideal_ref):
        alpha = 0.5
        behind_incident = make_point(2.8 * ideal_ref.a0, 2.0, ideal_ref)
        assert first_order_piecewise(behind_incident, alpha, ideal_ref).rho1 == 1.0
        theta = 0.8
        mid = 0.5 * (ideal_ref.a0 + reflected_line(theta, alpha, ideal_ref))
        sample = first_order_piecewise(make_point(mid, theta, ideal_ref), alpha, ideal_ref)
        assert sample.rho1 == 2.0
        assert sample.formula_tag == TAG_PIECEWISE

    def test_arc_sides(self, ideal_ref):
        alpha = 0.5
        on_arc_bd = make_point(ideal_ref.a0, 2.0 * alpha - 0.2, ideal_ref)
        on_arc_bc = make_point(ideal_ref.a0, 2.0 * alpha + 0.2, ideal_ref)
        assert first_order_piecewise(on_arc_bd, alpha, ideal_ref).rho1 == 2.0
        assert first_order_piecewise(on_arc_bc, alpha, ideal_ref).rho1 == 1.0

    def test_subsonic_point_rejected(self, ideal_ref):
        with pytest.raises(RegionError):
            first_order_piecewise(make_point(0.4, 1.0, ideal_ref), 0.5, ideal_ref)


class TestDiffractionFrame:
    def test_exponent_range(self):
        for alpha in (0.1, ALPHA, 1.4):
            assert 0.5 < corner_exponent(alpha) < 1.0

    def test_busemann_endpoints(self):
        assert busemann_variable(0.0) == 0.0
        assert busemann_variable(1.0) == 1.0
        assert 0.0 < busemann_variable(0.5) < 1.0


class TestDiffractedDensity:
    def test_center_limit(self, ideal_ref):
        s = 1e-8
        sigma = 2.0 * s / (1.0 + s * s)
        val = diffracted_density_xi(sigma, ALPHA + 0.8, ALPHA, ideal_ref).rho1
        assert val == pytest.approx(4.0 / 3.0, abs=1e-6)  # pi/(pi - alpha) at 45 degrees

    @pytest.mark.parametrize("alpha_deg", [30.0, 45.0, 60.0])
    def test_center_limit_all_angles(self, alpha_deg, ideal_ref):
        alpha = math.radians(alpha_deg)
        s = 1e-8
        sigma = 2.0 * s / (1.0 + s * s)
        val = diffracted_density_xi(sigma, alpha + 0.5, alpha, ideal_ref).rho1
        assert val == pytest.approx(math.pi / (math.pi - alpha), abs=1e-6)

    def test_arc_limits(self, ideal_ref):
        s = 1.0 - 1e-6
        sigma = 2.0 * s / (1.0 + s * s)
        bd = diffracted_density_xi(sigma, ALPHA + ALPHA / 2.0, ALPHA, ideal_ref).rho1
        bc = diffracted_density_xi(sigma, ALPHA + ALPHA + 0.5, ALPHA, ideal_ref).rho1
        assert bd == pytest.approx(2.0, abs=1e-3)
        assert bc == pytest.approx(1.0, abs=1e-3)

    def test_arc_point_returns_one_sided_value(self, ideal_ref):
        bd = diffracted_density_xi(1.0, ALPHA + 0.3, ALPHA, ideal_ref)
        bc = diffracted_density_xi(1.0, ALPHA + ALPHA + 0.4, ALPHA, ideal_ref)
        assert bd.rho1 == 2.0 and bc.rho1 == 1.0
        assert bd.formula_tag == TAG_DIFFRACTION

    def test_cancellation_ring_uses_asymptote(self, ideal_ref):
        sample = diffracted_density_xi(1.0 - 1e-15, ALPHA + 0.3, ALPHA, ideal_ref)
        assert sample.formula_tag == TAG_NEAR_FRONT
        assert sample.rho1 == pytest.approx(2.0, abs=1e-6)

    def test_cancellation_ring_singular_at_merge(self, ideal_ref):
        with pytest.raises(SingularityError):
            diffracted_density_xi(1.0 - 1e-15, 2.0 * ALPHA, ALPHA, ideal_ref)

    def test_outside_arc_rejected(self, ideal_ref):
        with pytest.raises(DomainError):
            diffracted_density_xi(1.0 + 1e-6, 1.0, ALPHA, ideal_ref)

    # a0 ~ 2e-316 is representable, but xi = zeta/c0 loses its digits: this
    # point used to print 1.3859075741790097 where rho0 = p0 = 1 gives
    # 1.3859075722339207.  With a0 ~ 2e-299 and kappa0 ~ 3e25, c0 = a0/kappa0
    # underflows to 0 and xi = zeta/c0 raised ZeroDivisionError.
    @pytest.mark.parametrize("args, c0_range", [
        ((1.7976931348623157e308, 5e-324, GasModel(1.4)), (5e-324, 2.2250738585072014e-308)),
        ((1e300, 1e-300, GasModel(50.0, 0.9)), (0.0, 0.0)),
    ], ids=["subnormal", "zero"])
    def test_non_normal_c0_rejected_pointwise_and_by_rows(self, args, c0_range):
        ref = reference_constants(*args)
        assert c0_range[0] <= ref.c0 <= c0_range[1] and ref.a0 > 0.0
        for call in (lambda: diffracted_density_xi(0.5, 1.5, ALPHA, ref),
                     lambda: list(density_rows([0.5], [1.5], ALPHA, ref)),
                     lambda: make_point(1.0, 1.5, ref)):
            with pytest.raises(DomainError, match="c0 must be a finite normal float.*rho0="):
                call()

    def test_range_bounded_by_uniform_states(self, covolume_ref):
        values = []
        for i in range(1, 25):
            for j in range(25):
                sigma = i / 25.0
                theta = ALPHA + (math.pi - ALPHA) * j / 24.0
                values.append(diffracted_density_xi(sigma, theta, ALPHA, covolume_ref).rho1)
        assert min(values) >= 1.0 - 1e-9
        assert max(values) <= 2.0 + 1e-9

    def test_wedge_neumann_by_evenness(self):
        # the interior formula depends on the wall-relative angle only through
        # cos(mu*beta): the even extension is exact, so the symmetric
        # difference across the wall vanishes identically
        mu = corner_exponent(ALPHA)
        for s in (0.2, 0.5, 0.9):
            for db in (1e-3, 1e-6):
                assert interior_density(s, db, mu) == interior_density(s, -db, mu)

    def test_zero_covolume_reduction(self, ideal_ref):
        for sigma in (0.1, 0.4, 0.8, 0.99):
            for theta in (ALPHA + 0.1, 1.5, 2.5, 3.0):
                ours = diffracted_density_xi(sigma, theta, ALPHA, ideal_ref).rho1
                assert ours == checks._ideal_gas_density(sigma, theta, ALPHA)  # the gate's oracle

    def test_matches_piecewise_on_arc_away_from_merge(self, covolume_ref):
        s = 1.0 - 1e-6
        sigma = 2.0 * s / (1.0 + s * s)
        xi = sigma * covolume_ref.kappa0
        for theta, want in ((ALPHA + 0.3, 2.0), (ALPHA + ALPHA + 0.5, 1.0)):
            inner_val = diffracted_density_xi(sigma, theta, ALPHA, covolume_ref).rho1
            assert inner_val == pytest.approx(want, abs=1e-3)


class TestNearFrontCoefficient:
    def test_singular_at_merge_ray(self):
        with pytest.raises(SingularityError):
            near_front_coefficient(2.0 * ALPHA, ALPHA)

    def test_sign_pattern(self):
        assert near_front_coefficient(ALPHA + ALPHA / 2.0, ALPHA) < 0.0  # wall side
        assert near_front_coefficient(ALPHA + 1.5 * ALPHA, ALPHA) > 0.0  # outer side

    @pytest.mark.parametrize("beta_frac", [0.5, 1.5])
    def test_is_the_near_arc_slope(self, beta_frac, ideal_ref):
        # regression of (field - arc value)/sqrt(1 - xi/kappa0) against the
        # coefficient over a ring hugging the arc
        theta = ALPHA + beta_frac * ALPHA
        c52 = near_front_coefficient(theta, ALPHA)
        base = 2.0 if beta_frac < 1.0 else 1.0
        for one_minus in (1e-3, 1e-5):
            sigma = 1.0 - one_minus
            val = diffracted_density_xi(sigma, theta, ALPHA, ideal_ref).rho1
            slope = (val - base) / math.sqrt(one_minus)
            assert slope == pytest.approx(c52, rel=2e-2)


class TestPdeResidual:
    def test_constant_field_exact_zero(self, ideal_ref):
        residual = density_pde_residual(lambda x, t: 1.7, 0.5, 1.2, 1e-3, ideal_ref)
        assert residual == 0.0

    def test_linear_radial_field_flagged(self, ideal_ref):
        residual = density_pde_residual(lambda x, t: x, 0.5, 2.0, 1e-3, ideal_ref)
        expected = 0.5 - 2.0 * 0.5**3 / ideal_ref.kappa0**2
        assert residual == pytest.approx(expected, abs=1e-10)
        assert abs(residual) > 0.1

    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    def test_diffraction_solution_satisfies_equation(self, btilde):
        gas = GasModel(1.4, btilde)
        ref = reference_constants(1.0, 1.0, gas)

        def field(xi, theta):
            return diffracted_density_xi(xi / ref.kappa0, theta, ALPHA, ref).rho1

        steps = (1e-2, 5e-3, 2.5e-3)
        residuals = [
            abs(density_pde_residual(field, 0.5 * ref.kappa0, 1.9, h, ref)) for h in steps
        ]
        assert min(richardson_slope(residuals, steps)) >= 1.9

    def test_stencil_domain_guard(self, ideal_ref):
        with pytest.raises(DomainError):
            density_pde_residual(lambda x, t: 1.0, 1e-4, 1.0, 1e-3, ideal_ref)
