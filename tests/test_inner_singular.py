import math

import pytest

from vdwshock.errors import DomainError
from vdwshock.geometry import make_point
from vdwshock.inner_singular import (
    InnerGeometry,
    InnerPoint,
    expansion_fan,
    inner_geometry,
    inner_linear,
    inner_rh_residual,
    inner_weak_solution,
    reflected_shock_locus,
    shock_loci,
    similarity_residual,
    stretch,
)
from vdwshock.linear_acoustics import diffracted_density
from vdwshock.thermo import GasModel, reference_constants

SQRT = math.sqrt


@pytest.fixture
def ideal_geom(ideal_gas, ideal_ref):
    return inner_geometry(ideal_gas, ideal_ref)


class TestStretch:
    def test_merge_point_maps_to_origin(self, ideal_ref):
        alpha = math.pi / 4
        pt = make_point(ideal_ref.kappa0 * ideal_ref.c0, 2.0 * alpha, ideal_ref)
        ip = stretch(pt, alpha, 0.01, ideal_ref)
        assert ip.r_prime == 0.0
        assert ip.theta_prime == 0.0
        assert ip.eta is None

    def test_arithmetic(self, ideal_ref):
        alpha = math.pi / 4
        pt = make_point((ideal_ref.kappa0 - 0.005) * ideal_ref.c0, 2.0 * alpha + 0.02, ideal_ref)
        ip = stretch(pt, alpha, 0.01, ideal_ref)
        assert ip.r_prime == pytest.approx(-0.5, rel=1e-12)
        assert ip.theta_prime == pytest.approx(0.2, rel=1e-12)

    def test_eta_on_reflected_parabola(self, ideal_ref):
        tp = 0.7
        rp = ideal_ref.kappa0 * tp * tp / 2.0
        alpha = 0.6
        pt = make_point((ideal_ref.kappa0 + 0.01 * rp) * ideal_ref.c0,
                        2.0 * alpha + 0.1 * tp, ideal_ref)
        ip = stretch(pt, alpha, 0.01, ideal_ref)
        assert ip.eta == pytest.approx(1.0, rel=1e-10)

    def test_requires_positive_strength(self, ideal_ref):
        pt = make_point(1.0, 1.0, ideal_ref)
        with pytest.raises(DomainError):
            stretch(pt, 0.5, 0.0, ideal_ref)

    def test_underflowing_theta_prime_square_raises_domain_error(self, ideal_ref):
        # kappa0*theta'^2 underflows to 0 while theta' != 0: this ended in a
        # bare ZeroDivisionError
        alpha = math.pi / 4
        pt = make_point(1.0, 2.0 * alpha + 4e-16, ideal_ref)
        with pytest.raises(DomainError, match=r"epsilon=1e\+300, theta'=4\.4\d*e-166"):
            stretch(pt, alpha, 1e300, ideal_ref)


class TestInnerLinear:
    def test_far_field_behind_incident(self, ideal_ref):
        assert inner_linear(InnerPoint(-1.0, 1e12, None), ideal_ref) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_continuous_across_merge_ray(self, ideal_ref):
        above = inner_linear(InnerPoint(-1.0, 1e-12, None), ideal_ref)
        below = inner_linear(InnerPoint(-1.0, -1e-12, None), ideal_ref)
        assert above == pytest.approx(1.5, abs=1e-9)
        assert below == pytest.approx(1.5, abs=1e-9)

    def test_arc_limits_by_side(self, ideal_ref):
        # approaching the front r' -> 0- the field matches the piecewise arc
        # data: 2 on the wall side (theta' < 0), 1 beyond (theta' > 0)
        assert inner_linear(InnerPoint(-1e-20, -1.0, None), ideal_ref) == pytest.approx(
            2.0, abs=1e-9
        )
        assert inner_linear(InnerPoint(-1e-20, 1.0, None), ideal_ref) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_outside_front_rejected(self, ideal_ref):
        with pytest.raises(DomainError):
            inner_linear(InnerPoint(0.0, 1.0, None), ideal_ref)

    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    def test_matches_outer_field_as_strength_shrinks(self, btilde):
        gas = GasModel(1.4, btilde)
        ref = reference_constants(1.0, 1.0, gas)
        alpha = math.pi / 4
        rp, tp = -0.5, 0.3
        inner_val = inner_linear(InnerPoint(rp, tp, None), ref)
        diffs = []
        for eps in (1e-2, 1e-3, 1e-4):
            xi = ref.kappa0 + eps * rp
            theta = 2.0 * alpha + math.sqrt(eps) * tp
            outer = diffracted_density(make_point(xi * ref.c0, theta, ref), alpha, ref).rho1
            diffs.append(abs(outer - inner_val))
        # matched asymptotics: mismatch shrinks like sqrt(eps)
        slope = math.log10(diffs[0] / diffs[-1]) / 2.0
        assert slope >= 0.4
        assert diffs[-1] < diffs[0]


class TestInnerGeometry:
    def test_ideal_layout(self, ideal_geom):
        assert ideal_geom.vartheta == 1.2
        assert ideal_geom.sonic_S == 1.2
        assert ideal_geom.sonic_R == 2.4

    def test_covolume_layout(self, covolume_gas, covolume_ref):
        geom = inner_geometry(covolume_gas, covolume_ref)
        expected = 0.5 * covolume_ref.kappa0 * 2.4 / 0.7
        assert geom.vartheta == pytest.approx(expected, rel=1e-14)
        assert geom.vartheta > 2.6  # lines shift right relative to the ideal gas

    def test_lines_and_gap_grow_with_covolume(self):
        geoms = [
            inner_geometry(GasModel(1.4, bt), reference_constants(1.0, 1.0, GasModel(1.4, bt)))
            for bt in (0.0, 0.2, 0.4, 0.6)
        ]
        for a, b in zip(geoms, geoms[1:]):
            assert b.sonic_S > a.sonic_S
            assert b.sonic_R > a.sonic_R
            assert (b.sonic_R - b.sonic_S) > (a.sonic_R - a.sonic_S)


class TestShockLoci:
    def test_vertex_height(self, ideal_geom):
        assert reflected_shock_locus(0.0, ideal_geom) == pytest.approx(
            1.5 * ideal_geom.vartheta, rel=1e-14
        )

    def test_diffracted_sits_inside(self, ideal_geom):
        for tp in (-1.0, 0.0, 2.0):
            for eta in (-0.2, -1.0, -6.0):
                s_r, s_d = shock_loci(tp, eta, ideal_geom)
                gap = 0.5 * ideal_geom.vartheta * (1.0 - math.atan(SQRT(-eta)) / math.pi)
                assert s_r - s_d == pytest.approx(gap, rel=1e-12)
                assert s_r > s_d

    def test_parabolic_far_field(self, ideal_geom):
        tp = 1e3
        ratio = reflected_shock_locus(tp, ideal_geom) / (0.5 * ideal_geom.kappa0 * tp * tp)
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_nonnegative_eta_rejected(self, ideal_geom):
        with pytest.raises(DomainError):
            shock_loci(0.0, 0.5, ideal_geom)


class TestWeakSolutions:
    def test_reflected_two_state(self, ideal_geom):
        s_r = reflected_shock_locus(1.0, ideal_geom)
        assert inner_weak_solution(InnerPoint(s_r + 0.1, 1.0, None), ideal_geom, "reflected") == 1.0
        assert inner_weak_solution(InnerPoint(s_r - 0.1, 1.0, None), ideal_geom, "reflected") == 2.0

    def test_diffracted_interior_value(self, ideal_geom):
        ip = InnerPoint(-1.0, 1.0, -1.0)
        assert inner_weak_solution(ip, ideal_geom, "diffracted") == pytest.approx(1.25, rel=1e-14)

    def test_diffracted_needs_eta(self, ideal_geom):
        with pytest.raises(DomainError):
            inner_weak_solution(InnerPoint(-1.0, 0.0, None), ideal_geom, "diffracted")

    def test_unknown_kind_rejected(self, ideal_geom):
        with pytest.raises(DomainError):
            inner_weak_solution(InnerPoint(0.0, 0.0, None), ideal_geom, "mach")


class TestExpansionFan:
    def test_outer_branch(self, ideal_geom):
        tp = 1.0
        assert expansion_fan(2.0 * ideal_geom.vartheta / tp**2 + 0.1, tp, ideal_geom) == 2.0

    def test_inner_branch_value(self, ideal_geom):
        # x < vartheta/theta'^2 with eta = 2x/kappa0 = -1
        x = -ideal_geom.kappa0 / 2.0
        assert expansion_fan(x, 1.0, ideal_geom) == pytest.approx(1.25, rel=1e-14)

    def test_mid_branch_verbatim(self, ideal_geom):
        tp = 1.3
        x = 1.5 * ideal_geom.vartheta / tp**2
        assert expansion_fan(x, tp, ideal_geom) == pytest.approx(tp * SQRT(1.5 * ideal_geom.vartheta), rel=1e-13)

    def test_outer_joint_continuous_only_at_special_angle(self, ideal_geom):
        # theta' = sqrt(2/vartheta) is the one angle where the middle branch
        # meets the outer value 2; elsewhere the printed profile jumps
        tp_match = SQRT(2.0 / ideal_geom.vartheta)
        x_edge = 2.0 * ideal_geom.vartheta / tp_match**2
        assert expansion_fan(x_edge, tp_match, ideal_geom) == pytest.approx(2.0, rel=1e-12)
        tp_other = 1.3
        gap = abs(expansion_fan(2.0 * ideal_geom.vartheta / tp_other**2, tp_other, ideal_geom) - 2.0)
        assert gap == pytest.approx(abs(tp_other * SQRT(2.0 * ideal_geom.vartheta) - 2.0), rel=1e-12)
        assert gap > 0.01

    def test_positive_eta_in_inner_branch_rejected(self, ideal_geom):
        with pytest.raises(DomainError):
            expansion_fan(1e-9, 10.0, ideal_geom)  # x below the fan but eta > 0


class TestJumpResiduals:
    def test_vertex_identities(self, ideal_geom):
        res_jump, res_avg = inner_rh_residual(ideal_geom, ideal_geom.theta0, 1.0, 2.0, 0.0)
        assert res_jump == 0.0
        assert abs(res_avg) <= 1e-12

    def test_no_jump_reduces_to_v(self, ideal_geom):
        res_jump, _ = inner_rh_residual(ideal_geom, 2.0, 1.5, 1.5, 0.37)
        assert res_jump == 0.37

    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    @pytest.mark.parametrize("offset", [1.0, 2.5])
    def test_off_vertex_documented_residual(self, btilde, offset):
        gas = GasModel(1.4, btilde)
        ref = reference_constants(1.0, 1.0, gas)
        geom = inner_geometry(gas, ref)
        _, res_avg = inner_rh_residual(geom, geom.theta0 + offset, 1.0, 2.0, 0.0)
        assert res_avg == pytest.approx(-2.0 * geom.kappa0**2 * offset**2, rel=1e-9)


class TestSimilarityResidual:
    @staticmethod
    def _sqrt_profile():
        return (math.sqrt, lambda x: 0.5 / math.sqrt(x), lambda x: -0.25 * x**-1.5)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_sqrt_profile_identities(self, ideal_geom, x):
        f, fp, fpp = self._sqrt_profile()
        full, sub = similarity_residual(f, fp, fpp, x, 1.3, ideal_geom)
        assert abs(sub) <= 1e-12
        assert full == pytest.approx(
            ideal_geom.kappa0 * (1.0 - ideal_geom.vartheta) / (2.0 * x), abs=1e-12
        )

    def test_sqrt_profile_exact_solution_at_unit_parameter(self):
        # with the layout parameter forced to one the closed-form residual
        # vanishes; physical gases keep it strictly above one
        geom = InnerGeometry(vartheta=1.0, theta0=0.0, sonic_S=1.0, sonic_R=2.0, kappa0=1.0)
        f, fp, fpp = self._sqrt_profile()
        full, _ = similarity_residual(f, fp, fpp, 1.7, 1.3, geom)
        assert abs(full) <= 1e-14

    def test_linear_profile_negative_control(self, ideal_geom):
        full, _ = similarity_residual(lambda x: x, lambda x: 1.0, lambda x: 0.0, 0.8, 1.0, ideal_geom)
        assert full == pytest.approx(ideal_geom.kappa0, rel=1e-13)


class TestBoundaryDataRecovery:
    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    def test_three_branch_limit(self, btilde):
        gas = GasModel(1.4, btilde)
        ref = reference_constants(1.0, 1.0, gas)
        geom = inner_geometry(gas, ref)
        tp = 1e3
        for eta, want in ((2.0, 1.0), (0.5, 2.0), (-1.0, 1.25)):
            rp = eta * geom.kappa0 * tp * tp / 2.0
            ip = InnerPoint(rp, tp, eta)
            if eta > 1.0:
                got = inner_weak_solution(ip, geom, "reflected")
            elif eta > 0.0:
                got = expansion_fan(eta * geom.kappa0 / 2.0, tp, geom)
            else:
                got = inner_weak_solution(ip, geom, "diffracted")
            assert got == pytest.approx(want, abs=1e-6)
