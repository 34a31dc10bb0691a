import math
import random

import pytest

from vdwshock import nonlinear_front
from vdwshock.config import RunConfig
from vdwshock.errors import ClassificationError, DomainError, SingularityError
from vdwshock.linear_acoustics import near_front_coefficient, state2_expansion
from vdwshock.nonlinear_front import (
    c_beta,
    classify_front,
    gradient_jump,
    psi_root,
    rarefaction_profile,
    shock_locus,
    shock_strength,
    transport_residual,
)
from vdwshock.reports import render_front
from vdwshock.thermo import GasModel, reference_constants

ALPHA = math.pi / 4


class TestMatchingCoefficient:
    def test_singular_on_sonic_ray(self):
        with pytest.raises(SingularityError):
            c_beta(ALPHA, ALPHA)

    @pytest.mark.parametrize("beta", [0.1, ALPHA / 2, ALPHA * 1.5, 2.0])
    def test_opposite_of_near_front_coefficient(self, beta):
        assert c_beta(beta, ALPHA) == pytest.approx(
            -near_front_coefficient(beta + ALPHA, ALPHA), rel=1e-12
        )

    def test_sign_flips_across_sonic_ray(self):
        inner = c_beta(ALPHA / 2.0, ALPHA)
        outer = c_beta(1.5 * ALPHA, ALPHA)
        assert inner * outer < 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            c_beta(math.pi - ALPHA, ALPHA)

    def test_sonic_ray_has_the_classification_message(self):
        # was "matching coefficient is singular on the sonic ray"
        with pytest.raises(SingularityError) as info:
            c_beta(ALPHA, ALPHA)
        assert str(info.value) == "front type is undefined on the sonic ray beta = alpha"


class TestClassifyFront:
    def test_wall_side_rarefaction(self):
        assert classify_front(ALPHA / 2.0, ALPHA).kind == "rarefaction"

    def test_outer_side_shock(self):
        assert classify_front(2.0 * ALPHA * 0.9 + 0.2, ALPHA).kind == "shock"

    def test_sonic_ray_undefined(self):
        with pytest.raises(SingularityError):
            classify_front(ALPHA, ALPHA)


# a ray outside [0, pi - alpha) on the wrong side gets the range error before the side test
# (these raised ClassificationError "... needs beta > alpha" or "... needs beta < alpha")
OUT_OF_RANGE_WRONG_SIDE = [
    ("shock_strength", lambda gas, ref: shock_strength(-0.5, ALPHA, 0.1, gas), "-0.5"),
    ("shock_locus", lambda gas, ref: shock_locus(1.0, -0.5, ALPHA, 0.1, gas, ref), "-0.5"),
    ("rarefaction_profile",
     lambda gas, ref: rarefaction_profile(0.5, 1.0, 3.0, ALPHA, 0.1, gas, ref, (0.5, 0.2, 0.1)),
     "3.0"),
]


@pytest.mark.parametrize("call, ray", [row[1:] for row in OUT_OF_RANGE_WRONG_SIDE],
                         ids=[row[0] for row in OUT_OF_RANGE_WRONG_SIDE])
def test_range_error_comes_before_the_side(call, ray, ideal_gas):
    with pytest.raises(DomainError) as info:
        call(ideal_gas, reference_constants(1.0, 1.0, ideal_gas))
    assert type(info.value) is DomainError
    assert str(info.value) == f"ray angle must lie in [0, pi - alpha), got {ray}"


_GAS = GasModel(1.4, 0.3)
RAY_CALLS = [
    ("shock_locus",
     lambda: shock_locus(1.0, 1.5 * ALPHA, ALPHA, 0.1, _GAS, reference_constants(1.0, 1.0, _GAS))),
    ("shock_strength", lambda: shock_strength(1.5 * ALPHA, ALPHA, 0.1, _GAS)),
    ("rarefaction_profile_behind_front",
     lambda: rarefaction_profile(0.5, 1.0, ALPHA / 2.0, ALPHA, 0.1, _GAS,
                                 reference_constants(1.0, 1.0, _GAS), (0.5, 0.2, 0.1))),
    ("render_front", lambda: render_front(RunConfig())),
]


@pytest.mark.parametrize("call", [row[1] for row in RAY_CALLS], ids=[row[0] for row in RAY_CALLS])
def test_ray_is_checked_once_through_c_beta(call, count_calls, monkeypatch):
    counts = count_calls(["c_beta", "classify_front"])
    call()
    assert counts == {"c_beta": 1, "classify_front": 1}
    # with c_beta stubbed out, nothing else reaches classify_front
    monkeypatch.setattr(nonlinear_front, "c_beta", lambda beta_angle, alpha: -0.5)
    call()
    assert counts == {"c_beta": 1, "classify_front": 1}


class TestTransportResidual:
    @pytest.mark.parametrize("btilde", [0.0, 0.3])
    def test_cylindrical_decay_profile(self, btilde):
        gas = GasModel(1.4, btilde)

        def profile(r, tau):
            return 0.7 / math.sqrt(r)

        residuals = [abs(transport_residual(profile, 2.0, 0.3, h, gas)) for h in (1e-2, 5e-3)]
        assert residuals[0] <= 1e-5
        assert residuals[0] / residuals[1] == pytest.approx(4.0, rel=0.1)

    def test_zero_amplitude(self, ideal_gas):
        assert transport_residual(lambda r, t: 0.0, 1.0, 0.0, 1e-3, ideal_gas) == 0.0

    def test_nonlinear_coefficient(self, covolume_gas):
        # for a = tau the residual is the nonlinear coefficient times tau
        res = transport_residual(lambda r, t: t, 2.0, 0.8, 1e-4, covolume_gas)
        coeff = (1.4 + 1.0) / (2.0 * (1.0 - 0.3))
        assert res == pytest.approx(coeff * 0.8 + 0.8 / 4.0, rel=1e-8)


class TestPsiRoot:
    def test_zero_strength_gives_linear_phase(self, covolume_gas):
        assert psi_root(0.37, 1.2, -0.8, 0.0, covolume_gas) == pytest.approx(0.37, rel=1e-14)

    def test_vanishes_on_front_for_expansion_branch(self, covolume_gas):
        assert psi_root(0.0, 1.2, -0.8, 0.1, covolume_gas) == 0.0

    def test_implicit_relation_residual(self):
        rng = random.Random(3)
        for _ in range(150):
            g = rng.uniform(1.1, 5.0 / 3.0)
            bt = rng.uniform(0.0, 0.7)
            gas = GasModel(g, bt)
            eps = rng.uniform(0.0, 0.3)
            c = rng.uniform(-2.0, 2.0)
            front = rng.uniform(0.5, 3.0)
            r = rng.uniform(0.1, front * 0.999)
            phi = front - r
            psi = psi_root(phi, r, c, eps, gas)
            res = psi - phi - eps * c * (g + 1.0) * math.sqrt(psi * r) / (1.0 - bt)
            assert abs(res) <= 1e-12 * max(abs(psi), abs(phi), 1.0)

    def test_beyond_fold_rejected(self, ideal_gas):
        with pytest.raises(DomainError):
            psi_root(-1.0, 1.0, -0.1, 0.01, ideal_gas)


class TestAmplitudeLaw:
    def test_profile_constant_along_characteristics(self, covolume_gas):
        # integrate d(tau)/dr = (gamma+1)*a/(2*(1-btilde)) with a = L/sqrt(r)
        # by RK4 and confirm both invariants of the transport solution
        g, bt = covolume_gas.gamma, covolume_gas.btilde
        lam = -0.6

        def a_of(r):
            return lam / math.sqrt(r)

        def rhs(r):
            return (g + 1.0) * a_of(r) / (2.0 * (1.0 - bt))

        r, tau = 0.5, 0.2
        h = 1e-4
        for _ in range(20000):
            k1 = rhs(r)
            k2 = rhs(r + h / 2.0)
            k3 = rhs(r + h / 2.0)
            k4 = rhs(r + h)
            tau += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            r += h
        # tau - (gamma+1)*Lambda*sqrt(r)/(1-btilde) is the characteristic label
        label_start = 0.2 - (g + 1.0) * lam * math.sqrt(0.5) / (1.0 - bt)
        label_end = tau - (g + 1.0) * lam * math.sqrt(r) / (1.0 - bt)
        assert label_end == pytest.approx(label_start, abs=1e-9)
        assert a_of(r) * math.sqrt(r) == pytest.approx(lam, rel=1e-14)


class TestRarefactionProfile:
    @pytest.fixture
    def setup(self, covolume_gas):
        ref = reference_constants(1.0, 1.0, covolume_gas)
        beta = ALPHA / 2.0
        st2 = state2_expansion(beta + ALPHA, ALPHA, ref)
        return covolume_gas, ref, beta, st2

    def test_outside_front_is_uniform_state(self, setup):
        gas, ref, beta, st2 = setup
        front = ref.c0 * ref.kappa0
        rho, u, v, s = rarefaction_profile(front * 1.2, 1.0, beta, ALPHA, 0.1, gas, ref, st2)
        assert rho == pytest.approx(1.0 + 2.0 * 0.1, rel=1e-14)
        assert u == pytest.approx(ref.c0 * st2[1] * 0.1, rel=1e-14)
        assert v == pytest.approx(ref.c0 * st2[2] * 0.1, rel=1e-14)
        assert s == 0.0

    def test_zero_strength_everywhere_uniform(self, setup):
        gas, ref, beta, st2 = setup
        inside = rarefaction_profile(0.5, 1.0, beta, ALPHA, 0.0, gas, ref, st2)
        assert inside[0] == 1.0

    def test_continuous_across_front(self, setup):
        gas, ref, beta, st2 = setup
        front = ref.c0 * ref.kappa0
        inside = rarefaction_profile(front * (1 - 1e-13), 1.0, beta, ALPHA, 0.1, gas, ref, st2)
        outside = rarefaction_profile(front, 1.0, beta, ALPHA, 0.1, gas, ref, st2)
        for a, b in zip(inside, outside):
            assert abs(a - b) <= 1e-10

    def test_density_dips_below_uniform_inside(self, setup):
        gas, ref, beta, st2 = setup
        front = ref.c0 * ref.kappa0
        rho_in, _, _, _ = rarefaction_profile(front * 0.98, 1.0, beta, ALPHA, 0.1, gas, ref, st2)
        assert rho_in < 1.0 + 2.0 * 0.1

    def test_shock_side_rejected(self, setup):
        gas, ref, _, st2 = setup
        with pytest.raises(ClassificationError):
            rarefaction_profile(0.5, 1.0, 1.5 * ALPHA, ALPHA, 0.1, gas, ref, st2)

    def test_correction_shape_approaches_linear_front_form(self, setup):
        # scaled correction must converge to sqrt((front - r)/r), the spatial
        # shape of the linear near-front expansion, as the strength vanishes
        gas, ref, beta, st2 = setup
        front = ref.c0 * ref.kappa0
        r = 0.9 * front
        c_case = -abs(c_beta(beta, ALPHA))
        shape = math.sqrt((front - r) / r)
        errs = []
        eps_list = (1e-2, 1e-3, 1e-4)
        for eps in eps_list:
            rho, _, _, _ = rarefaction_profile(r, 1.0, beta, ALPHA, eps, gas, ref, st2)
            corr = (rho - (1.0 + 2.0 * eps)) / (eps * eps * c_case)
            errs.append(abs(corr - shape))
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.2)


class TestGradientJump:
    def test_hand_value(self, ideal_gas):
        assert gradient_jump(1.0, ideal_gas, 1.0) == pytest.approx(1.0 / 2.4, rel=1e-14)

    def test_inverse_radius_decay(self, covolume_gas):
        assert gradient_jump(2.0, covolume_gas, 1.0) == pytest.approx(
            gradient_jump(1.0, covolume_gas, 1.0) / 2.0, rel=1e-14
        )

    def test_decreases_with_covolume(self):
        vals = [gradient_jump(1.0, GasModel(1.4, bt), 1.0) for bt in (0.0, 0.2, 0.4, 0.6)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestShockLocusAndStrength:
    BETA = 1.5 * ALPHA

    def test_zero_strength_rides_linear_front(self, covolume_gas, covolume_ref):
        r = shock_locus(2.0, self.BETA, ALPHA, 0.0, covolume_gas, covolume_ref)
        assert r == pytest.approx(covolume_ref.c0 * covolume_ref.kappa0 * 2.0, rel=1e-14)

    def test_correction_coefficient_identity(self, covolume_gas, covolume_ref):
        eps = 0.2
        r = shock_locus(1.0, self.BETA, ALPHA, eps, covolume_gas, covolume_ref)
        c = c_beta(self.BETA, ALPHA)
        q = eps**2 * 2.4**2 * c * c / (4.0 * 0.7**2)
        assert r / (covolume_ref.c0 * covolume_ref.kappa0) - 1.0 == pytest.approx(q, rel=1e-13)

    def test_strength_identity_and_zero_limit(self, covolume_gas):
        eps = 0.2
        c = c_beta(self.BETA, ALPHA)
        assert shock_strength(self.BETA, ALPHA, eps, covolume_gas) == pytest.approx(
            eps**2 * c * c * 2.4 / (2.0 * 0.7), rel=1e-13
        )
        assert shock_strength(self.BETA, ALPHA, 0.0, covolume_gas) == 0.0

    def test_speed_increases_with_covolume(self):
        speeds = []
        for bt in (0.0, 0.2, 0.4, 0.6):
            gas = GasModel(1.4, bt)
            ref = reference_constants(1.0, 1.0, gas)
            speeds.append(shock_locus(1.0, self.BETA, ALPHA, 0.1, gas, ref))
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_strength_increases_with_covolume(self):
        vals = [
            shock_strength(self.BETA, ALPHA, 0.1, GasModel(1.4, bt)) for bt in (0.0, 0.3, 0.6)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rarefaction_side_rejected(self, covolume_gas, covolume_ref):
        with pytest.raises(ClassificationError):
            shock_locus(1.0, ALPHA / 2.0, ALPHA, 0.1, covolume_gas, covolume_ref)
        with pytest.raises(ClassificationError):
            shock_strength(ALPHA / 2.0, ALPHA, 0.1, covolume_gas)

    def test_equal_area_against_characteristic_envelope(self, covolume_gas, covolume_ref):
        # the fold tip where the implicit phase develops a double root must
        # agree with the equal-area locus through fourth order in strength
        gas, ref = covolume_gas, covolume_ref
        eps = 0.05
        c = c_beta(self.BETA, ALPHA)
        front = ref.c0 * ref.kappa0
        q = eps**2 * (gas.gamma + 1.0) ** 2 * c * c / (4.0 * (1.0 - gas.btilde) ** 2)
        r_envelope = front / (1.0 - q)
        r_shock = shock_locus(1.0, self.BETA, ALPHA, eps, gas, ref)
        assert r_shock - front == pytest.approx(q * front, rel=1e-12)
        assert abs(r_envelope - r_shock) <= 2.0 * front * q * q

