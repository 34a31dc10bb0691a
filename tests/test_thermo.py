import math
import random

import mpmath
import pytest
from hypothesis import given, strategies as st

from vdwshock.errors import DomainError
from vdwshock.regular_reflection import criterion
from vdwshock.thermo import (
    GasModel,
    ThermoState,
    _sound_speed,
    reference_constants,
    sound_speed,
    thermo_eval,
    validate_gas,
)


class TestValidateGas:
    def test_valid_gas_passes_through(self):
        gas = GasModel(1.4, 0.0)
        assert validate_gas(gas) is gas

    def test_gamma_at_one_rejected(self):
        with pytest.raises(DomainError, match="gamma must exceed 1"):
            validate_gas(GasModel(1.0, 0.0))

    def test_infinite_gamma_rejected(self):
        with pytest.raises(DomainError, match="gamma must be finite"):
            validate_gas(GasModel(math.inf, 0.0))

    def test_infinite_gamma_rejected_by_criterion(self):
        # used to return an inadmissible report with upper_beta = nan
        with pytest.raises(DomainError, match="gamma must be finite"):
            criterion(1.2, GasModel(math.inf, 0.0))

    def test_btilde_at_one_rejected(self):
        with pytest.raises(DomainError, match="btilde must be below 1"):
            validate_gas(GasModel(1.4, 1.0))

    def test_negative_btilde_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            validate_gas(GasModel(1.4, -0.1))


class TestSoundSpeed:
    def test_ideal_unit_state(self):
        a = sound_speed(ThermoState(1.0, 1.0), GasModel(1.4, 0.0))
        assert a == pytest.approx(math.sqrt(1.4), rel=1e-15)

    def test_covolume_unit_state(self):
        a = sound_speed(ThermoState(1.0, 1.0), GasModel(1.4, 0.5))
        assert a == pytest.approx(math.sqrt(2.8), rel=1e-15)

    def test_ideal_scaled_state(self):
        a = sound_speed(ThermoState(2.0, 2.0), GasModel(2.0, 0.0))
        assert a == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_saturated_covolume_rejected(self):
        with pytest.raises(DomainError, match="b\\*rho"):
            sound_speed(ThermoState(2.0, 1.0), GasModel(1.4, 0.5))

    def test_nonpositive_pressure_rejected(self):
        with pytest.raises(DomainError, match="pressure"):
            sound_speed(ThermoState(1.0, 0.0), GasModel(1.4, 0.0))

    @given(
        gamma=st.floats(1.05, 3.0),
        rho=st.floats(0.1, 5.0),
        p=st.floats(0.1, 5.0),
    )
    def test_zero_covolume_matches_ideal_formula(self, gamma, rho, p):
        a = sound_speed(ThermoState(rho, p), GasModel(gamma, 0.0))
        assert a == pytest.approx(math.sqrt(gamma * p / rho), rel=1e-14)

    def test_strictly_increasing_in_btilde(self):
        state = ThermoState(1.0, 1.0)
        speeds = [sound_speed(state, GasModel(1.4, bt)) for bt in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert all(b > a for a, b in zip(speeds, speeds[1:]))

    def test_kernel_is_within_2_ulps_of_the_50_digit_value(self):
        # four roundings of the radicand cost under 1 ulp after the root, and the root 0.5
        rng = random.Random(0)
        worst = 0.0
        for _ in range(2000):
            g = 1.0 + 10.0 ** rng.uniform(-12.0, 3.0)
            p, rho = 10.0 ** rng.uniform(-100.0, 100.0), 10.0 ** rng.uniform(-100.0, 100.0)
            # chi = 0, a log-spread chi up to 1/2, or a log-spread 1 - chi down to 1e-12
            chi = rng.choice((0.0, 10.0 ** rng.uniform(-16.0, -0.3),
                              1.0 - 10.0 ** rng.uniform(-12.0, -0.3)))
            a = _sound_speed(g, p, rho, chi)
            assert math.isfinite(a), (g, p, rho, chi)
            with mpmath.workdps(50):
                exact = mpmath.sqrt(mpmath.mpf(g) * p / (mpmath.mpf(rho) * (1 - mpmath.mpf(chi))))
                worst = max(worst, float(abs(a - exact) / math.ulp(a)))
        assert worst <= 2.0


class TestThermoEval:
    def test_ideal_energies(self):
        e, h, _ = thermo_eval(ThermoState(1.0, 1.0), GasModel(1.4, 0.0))
        assert e == pytest.approx(2.5, rel=1e-15)
        assert h == pytest.approx(3.5, rel=1e-15)
        assert h - e == pytest.approx(1.0, rel=1e-14)  # p*V

    def test_covolume_energies(self):
        e, h, _ = thermo_eval(ThermoState(1.0, 1.0), GasModel(1.4, 0.5))
        assert e == pytest.approx(1.25, rel=1e-15)
        assert h == pytest.approx(2.25, rel=1e-15)
        assert h - e == pytest.approx(1.0, rel=1e-14)

    def test_entropy_offset_vanishes_at_reference(self):
        state = ThermoState(1.3, 0.8)
        _, _, s_rel = thermo_eval(state, GasModel(1.4, 0.2), reference=state)
        assert s_rel == 0.0

    @given(
        gamma=st.floats(1.05, 3.0),
        btilde=st.floats(0.0, 0.8),
        rho=st.floats(0.2, 1.1),
        p=st.floats(0.1, 5.0),
    )
    def test_enthalpy_energy_identity(self, gamma, btilde, rho, p):
        e, h, _ = thermo_eval(ThermoState(rho, p), GasModel(gamma, btilde))
        assert h - e == pytest.approx(p / rho, rel=1e-12)


class TestReferenceConstants:
    def test_ideal_gas_collapses(self, ideal_gas):
        ref = reference_constants(1.0, 1.0, ideal_gas)
        assert ref.kappa0 == 1.0
        assert ref.c0 == ref.a0

    @pytest.mark.parametrize(
        "btilde, expected",
        [(0.3, 1.5342013196939706), (0.6, 3.002811084953578)],
    )
    def test_kappa0_power_law(self, btilde, expected):
        ref = reference_constants(1.0, 1.0, GasModel(1.4, btilde))
        # independent evaluation of the same power law through exp/log
        assert ref.kappa0 == pytest.approx(math.exp(-1.2 * math.log(1.0 - btilde)), rel=1e-14)
        assert ref.kappa0 == pytest.approx(expected, rel=1e-12)

    def test_c0_kappa0_product(self, covolume_gas):
        ref = reference_constants(2.0, 3.0, covolume_gas)
        assert ref.c0 * ref.kappa0 == pytest.approx(ref.a0, rel=1e-15)
        assert ref.a0 == pytest.approx(
            math.sqrt(1.4 * 3.0 / (2.0 * 0.7)), rel=1e-15
        )

    def test_kappa0_monotone_in_btilde_and_gamma(self):
        k = [reference_constants(1.0, 1.0, GasModel(1.4, bt)).kappa0 for bt in (0.0, 0.2, 0.5, 0.8)]
        assert all(b > a for a, b in zip(k, k[1:]))
        k_gamma = [reference_constants(1.0, 1.0, GasModel(g, 0.4)).kappa0 for g in (1.2, 1.4, 1.67)]
        assert all(b > a for a, b in zip(k_gamma, k_gamma[1:]))

    def test_rejects_bad_reference(self, ideal_gas):
        with pytest.raises(DomainError):
            reference_constants(-1.0, 1.0, ideal_gas)

    @pytest.mark.parametrize("rho0, p0", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_rejects_non_finite_reference(self, ideal_gas, rho0, p0):
        with pytest.raises(DomainError, match="must be finite"):
            reference_constants(rho0, p0, ideal_gas)

    @pytest.mark.parametrize("gamma, btilde, rho0, p0", [
        (1e16, 0.5, 1.0, 1.0),  # kappa0 overflows: the power used to raise OverflowError
        (1.4, 0.5, 5e-324, 1e300),  # rho0*(1-btilde) underflows and a0 overflows
    ])
    def test_out_of_float_range_names_the_inputs(self, gamma, btilde, rho0, p0):
        with pytest.raises(DomainError) as exc:
            reference_constants(rho0, p0, GasModel(gamma, btilde))
        assert str(exc.value) == (
            f"reference constants a0, kappa0 leave the float range at gamma={gamma}, "
            f"btilde={btilde}, rho0={rho0}, p0={p0}"
        )

    @pytest.mark.parametrize("btilde, rho0, p0", [
        (0.0, 1e300, 1e-300),  # the quotient underflows: a0 came out 0
        (0.0, 1e-300, 1e300),  # the quotient overflows: a0 came out inf
        (0.5, 5e-324, 1e-310),  # rho0*(1-btilde) underflows: used to raise
    ])
    def test_representable_a0_survives_an_out_of_range_quotient(self, btilde, rho0, p0):
        ref = reference_constants(rho0, p0, GasModel(1.4, btilde))
        want = math.sqrt(1.4) * math.sqrt(p0) / math.sqrt(rho0) / math.sqrt(1.0 - btilde)
        assert ref.a0 == pytest.approx(want, rel=1e-12)
