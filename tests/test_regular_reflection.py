import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from vdwshock import regular_reflection
from vdwshock.errors import (
    AdmissibilityError,
    DetachmentError,
    DomainError,
)
from vdwshock.regular_reflection import (
    ROOT_AGREEMENT,
    CubicForm,
    F_eval,
    beta_r_from_angles,
    criterion,
    cubic_coefficients,
    positive_root,
    solve_regular_reflection,
    tan_phi_r_branches,
    _beta_r_of,
    _bisection_root,
    _coeffs,
    _depressed_root,
    _tan_delta_r,
    _threshold_columns,
    _threshold_row,
)
from vdwshock.config import RunConfig
from vdwshock.shock_relations import IncidentShockInput, _within, admissible_beta_bounds, beta_upper
from vdwshock.table_fixture import FIXTURE_BETA, FIXTURE_BTILDE, fixture_value
from vdwshock.thermo import GasModel

from test_threshold_clamps import admissible_cells as config_cells, gate_configs


def admissible_cells():
    cells = []
    for g in (1.1, 1.4, 5.0 / 3.0):
        for bt in (0.0, 0.15, 0.3, 0.5):
            upper = (g + 1.0) / (g - 1.0 + 2.0 * bt)
            for beta in (1.05, 1.3, 1.8, 2.5, 3.5):
                if beta < upper * 0.999:
                    cells.append((beta, bt, g))
    return cells


#: the dense grid's gammas; each has 14 covolumes in [0, 0.98) and 24 ratios per column
DENSE_GAMMAS = [1.05 + (3.0 - 1.05) * i / 11 for i in range(12)]


def dense_cells(g):
    """The row kernel's cells of the dense grid at gamma g."""
    cells = []
    for j in range(14):
        bt = 0.98 * j / 14
        columns = _threshold_columns(g, (bt,))
        upper = (g + 1.0) / (g - 1.0 + 2.0 * bt)
        for k in range(1, 25):
            cells += _threshold_row(1.0 + (upper - 1.0) * k / 24, g, columns)
    return cells


def closed_form_root(cubic):
    """The kernel's closed-form root: _depressed_root(m, n) shifted back to X."""
    return _depressed_root(cubic[4], cubic[5]) - cubic[2] / (3.0 * cubic[3])


def cubic_value(cubic, x):
    h0, h1, h2, h3, _m, _n = cubic
    return ((h3 * x + h2) * x + h1) * x + h0


def within_ulps_of_the_exact_root(cubic, x, k):
    """The cubic h0..h3, in exact arithmetic, changes sign from - to + within k ulps of x."""
    h0, h1, h2, h3 = map(Fraction, cubic[:4])
    w = k * Fraction(math.ulp(x))
    lo, hi = Fraction(x) - w, Fraction(x) + w
    return ((h3 * lo + h2) * lo + h1) * lo + h0 <= 0 <= ((h3 * hi + h2) * hi + h1) * hi + h0


def bisect_cubic(cubic, lo, hi):
    # independent bracketing oracle for the unique positive zero
    assert cubic_value(cubic, lo) <= 0.0 < cubic_value(cubic, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if cubic_value(cubic, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestCubicCoefficients:
    def test_hand_values_ideal(self, ideal_gas):
        c = cubic_coefficients(1.2, ideal_gas)
        assert c.h3 == pytest.approx(1.2, rel=1e-14)
        assert c.h0 == pytest.approx(-0.04 / 1.2, rel=1e-13)
        assert c.h1 == pytest.approx(-0.5586666666666666, rel=1e-13)
        assert c.h2 == pytest.approx(-1.7984, rel=1e-13)

    def test_degenerate_shock(self, ideal_gas):
        c = cubic_coefficients(1.0, ideal_gas)
        assert c.h0 == 0.0
        assert c.h1 == 0.0

    def test_overflow_is_a_domain_error(self):
        # 2*b2**3 overflows a float in _coeffs; it used to escape as OverflowError
        with pytest.raises(DomainError, match=r"gamma=1e\+100, beta_i=0.999999999999"):
            cubic_coefficients(0.999999999999, GasModel(1e100, 0.0))

    def test_full_covolume_is_a_domain_error(self):
        # btilde*beta_i rounds to 1, so h3 = 0; it used to escape as ZeroDivisionError
        with pytest.raises(DomainError, match="covolume fraction .* reaches 1"):
            cubic_coefficients(1.000000000001, GasModel(1.0000000000098845, 0.999999999999))

    @pytest.mark.parametrize("beta, bt, g", admissible_cells())
    def test_sign_pattern_and_sum_identity(self, beta, bt, g):
        gas = GasModel(g, bt)
        c = cubic_coefficients(beta, gas)
        assert c.h3 > 0.0
        assert c.h0 <= 0.0
        if beta > 1.0:
            assert c.h0 < 0.0 and c.h1 < 0.0 and c.h2 < 0.0
        f0 = F_eval(beta, 0.0, gas)
        assert c.h0 + c.h1 + c.h2 + c.h3 == pytest.approx(f0, rel=1e-12)

    @pytest.mark.parametrize("beta, bt, g", admissible_cells())
    def test_depressed_constants_match_expanded_displays(self, beta, bt, g):
        # the fully expanded m, n displays, transcribed verbatim (with the
        # inner 2*bt*beta factor that the matching h-expansion requires)
        c = cubic_coefficients(beta, GasModel(g, bt))
        b = beta
        m_num = (
            (2 - 3 * b) ** 2 * (1 - bt * b) ** 4
            + (b - 1) ** 2 * (1 + g * (b - 1) + b - 2 * bt * b) ** 2 * (g - 1 + 2 * bt * b) ** 2
            - 2 * (b - 1) * (3 * b - 2) * (1 - bt * b) ** 2 * (g - 1 + 2 * bt * b)
            * (g - 1 + (2 * bt - (g + 1)) * b)
            - 3 * (b - 1) * (1 - bt * b) ** 3
            * (-1 + (1 + bt + 2 * g) * b + (bt - 2 * (1 + g)) * b ** 2)
        )
        m_display = -m_num / (3 * b ** 2 * (1 - bt * b) ** 4)
        n_num = (
            27 * (b - 1) ** 2 * b * (1 - bt * b) ** 6
            + 9 * (b - 1) * (1 - bt * b) ** 3
            * (1 - (1 + bt + 2 * g) * b + (2 * (1 + g) - bt) * b ** 2)
            * (
                (3 * b - 2) * (1 - bt * b) ** 2
                + (b - 1) * (1 + g * (b - 1) + b - 2 * bt * b) * (g - 1 + 2 * bt * b)
            )
            + 2 * (
                -1 + g ** 2 * (b - 1) ** 2 + 3 * b + (2 * bt ** 2 - 4 * bt - 1) * b ** 2
                - (-2 + bt) * bt * b ** 3 + 2 * g * (b - 1) * (1 + bt * (b - 2) * b)
            ) ** 3
        )
        n_display = -n_num / (27 * b ** 3 * (1 - bt * b) ** 6)
        assert c.m == pytest.approx(m_display, rel=1e-11, abs=1e-13)
        assert c.n == pytest.approx(n_display, rel=1e-11, abs=1e-13)


class TestFEval:
    def test_zero_angle_value(self, covolume_gas):
        g, bt, beta = 1.4, 0.3, 1.5
        f0 = F_eval(beta, 0.0, covolume_gas)
        expected = -(beta - 1.0) * ((g + 1.0 - 2.0 * bt) * beta - (g - 1.0)) * (g + 1.0)
        assert f0 == pytest.approx(expected, rel=1e-14)
        assert f0 < 0.0

    def test_degenerate_shock_nonnegative(self, covolume_gas):
        t2 = 0.8
        f = F_eval(1.0, t2, covolume_gas)
        assert f == pytest.approx(t2 * (1.0 + t2) ** 2 * 0.49, rel=1e-13)
        assert f >= 0.0

    def test_vanishes_at_threshold(self, ideal_gas):
        j = criterion(1.2, ideal_gas).J
        assert abs(F_eval(1.2, j, ideal_gas)) <= 1e-10 * abs(F_eval(1.2, 0.0, ideal_gas))


class TestPositiveRoot:
    def test_frozen_root_ideal(self, ideal_gas):
        c = cubic_coefficients(1.2, ideal_gas)
        x = positive_root(c)
        assert x == pytest.approx(bisect_cubic(c, 1e-9, 4.0), abs=1e-11)
        assert x == pytest.approx(1.770482384099424, rel=1e-12)

    def test_three_real_root_regime_matches_bisection(self):
        # interior cells fall in the negative-discriminant (cosine) regime of the
        # kernel's closed form
        c = cubic_coefficients(3.0, GasModel(5.0 / 3.0, 0.1))
        assert c.n * c.n / 4.0 + c.m ** 3 / 27.0 < 0.0
        assert closed_form_root(c) == pytest.approx(bisect_cubic(c, 1e-9, 64.0), abs=1e-10)

    def test_radical_regime_matches_bisection(self):
        # synthetic coefficients with the admissible sign pattern but a
        # positive discriminant exercise the real-cube-root path
        h0, h1, h2, h3 = -6.0, -1.0, -4.0, 1.0
        b2, b1, b0 = h2 / h3, h1 / h3, h0 / h3
        m = b1 - b2 * b2 / 3.0
        n = b0 - b1 * b2 / 3.0 + 2.0 * b2 ** 3 / 27.0
        assert n * n / 4.0 + m ** 3 / 27.0 > 0.0
        c = CubicForm(h0, h1, h2, h3, m, n)
        assert closed_form_root(c) == pytest.approx(bisect_cubic(c, 1e-9, 64.0), abs=1e-10)

    def test_degenerate_factorized_root(self, covolume_gas):
        # at beta = 1 the constant and linear coefficients drop out and the
        # root collapses to -h2/h3 = 1
        c = cubic_coefficients(1.0, covolume_gas)
        assert positive_root(c) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("beta, bt, g", admissible_cells())
    def test_root_uniqueness_sign_structure(self, beta, bt, g):
        c = cubic_coefficients(beta, GasModel(g, bt))
        x = positive_root(c)
        for frac in (0.15, 0.5, 0.85):
            assert cubic_value(c, frac * x) < 0.0
        for frac in (1.15, 1.5, 2.0):
            assert cubic_value(c, frac * x) > 0.0

    @pytest.mark.parametrize("m, n, h3", [
        (-12.0, math.nan, 1.0),  # returned 2.0000000000000004: the clamp sent arg = NaN to -1
        (math.nan, 0.0, 1.0),
        (-12.0, math.inf, 1.0),
        (math.nan, 0.0, 0.0),  # the NaN test comes before the shift h2/(3*h3) divides by 0
    ], ids=["-12.0-nan", "nan-0.0", "-12.0-inf", "nan-0.0-h3_zero"])
    def test_non_finite_depressed_constants_raise(self, m, n, h3):
        # X**3 - 2X - 4 has the root X = 2, which no NaN constant may certify
        with pytest.raises(OverflowError, match="threshold cubic or its root is not finite"):
            positive_root(CubicForm(-4.0, -2.0, 0.0, h3, m, n))


class TestRootCertificate:
    def test_certified_on_dense_admissible_grid(self, monkeypatch):
        # the certificate lives only in the row kernel: every admissible cell is
        # accepted there without positive_root, and the certified root agrees
        # with the bisection oracle
        def no_fallback(cubic):
            raise AssertionError(f"certificate failed for {cubic}")

        cells = []
        with monkeypatch.context() as m:
            m.setattr(regular_reflection, "positive_root", no_fallback)
            for g in DENSE_GAMMAS:
                cells += dense_cells(g)
        assert len(cells) == 12 * 14 * 24 and None not in cells
        for cell in cells:
            assert abs(cell[6] - _bisection_root(cell[:6])) <= ROOT_AGREEMENT

    @pytest.mark.parametrize("g", DENSE_GAMMAS, ids=[f"{g:.4f}" for g in DENSE_GAMMAS])
    def test_kernel_root_is_within_4_ulps_of_the_exact_root(self, g):
        # exact rational arithmetic on the printed h0..h3 brackets the true
        # root, independent of radicals and bisection; the closed form lands
        # within 3 ulps of it on this grid
        for cell in dense_cells(g):
            assert within_ulps_of_the_exact_root(cell[:6], cell[6], 4), (g, cell)

    def test_positive_root_is_within_4_ulps_of_the_exact_root(self):
        for beta, bt, g in admissible_cells():
            c = cubic_coefficients(beta, GasModel(g, bt))
            assert within_ulps_of_the_exact_root(c, positive_root(c), 4), (beta, bt, g)

    def test_positive_root_is_the_sign_change_root(self):
        for beta, bt, g in admissible_cells():
            c = cubic_coefficients(beta, GasModel(g, bt))
            assert positive_root(c).hex() == _bisection_root(c).hex(), (beta, bt, g)

    def test_several_positive_roots_give_one_of_them(self):
        # (X-1)(X-2)(X-3) has three sign changes and (X+1)(X-1)(X-3) two, with
        # h0 > 0; Descartes' rule certifies nothing, and the bracket that
        # doubling from 1 finds holds the root 3
        for h0, h1, h2, h3 in ((-6.0, 11.0, -6.0, 1.0), (3.0, -1.0, -3.0, 1.0)):
            m = h1 - h2 * h2 / 3.0
            n = h0 - h1 * h2 / 3.0 + 2.0 * h2 ** 3 / 27.0
            x = positive_root(CubicForm(h0, h1, h2, h3, m, n))
            assert x == pytest.approx(3.0, abs=1e-12)

    def test_a_negative_leading_coefficient_gives_the_roots_of_the_negation(self):
        # -(X-1)(X-2)(X-3): doubling from 1 meets p = 0 at 1 and 2 and p < 0 from 4
        # on, so without the negation it never sees p > 0 on (2, 3); m, n: y^3 - y
        assert positive_root(CubicForm(6.0, -11.0, 6.0, -1.0, -1.0, 0.0)) == 3.0

    def test_a_root_below_a_larger_one_is_a_domain_error(self):
        # (X - 0.5)(X - 1.5)(X - 3): doubling from 1 stops at p(1) > 0 and brackets
        # 0.5; p < 0 at the larger critical point (5 + sqrt(7))/3 shows the root 3
        h0, h1, h2, h3 = -2.25, 6.75, -5.0, 1.0
        m = h1 - h2 * h2 / 3.0
        n = h0 - h1 * h2 / 3.0 + 2.0 * h2 ** 3 / 27.0
        with pytest.raises(DomainError, match=r"^cubic has a positive root above its root 0\.5$"):
            positive_root(CubicForm(h0, h1, h2, h3, m, n))

    def test_large_root_agreement_is_ulp_aware(self, monkeypatch):
        # at x* ~ 7.3e6 an absolute 1e-10 is below one ulp; the certificate's
        # bracket is 16 ulps wide there and accepts the closed form, a few ulps
        # from the sign-change root
        calls = []

        def spy(cubic):
            calls.append(cubic)
            return positive_root(cubic)

        monkeypatch.setattr(regular_reflection, "positive_root", spy)
        rep = criterion(1.0000000000001, GasModel(2.0, 0.9999999999999))
        assert rep.x_star > 7e6 and calls == []
        assert abs(rep.x_star - _bisection_root(rep.cubic)) <= 16.0 * math.ulp(rep.x_star)
        # at x* ~ 7.4e19 the sign bracket fails, and the kernel prints the
        # sign-change root, within 4 ulps of the printed cubic's exact root
        rep = criterion(2.639596502525662, GasModel(1.0000000002338196, 0.378845781470042))
        assert rep.x_star > 7e19 and calls == [tuple(rep.cubic)]
        assert rep.x_star == _bisection_root(rep.cubic)
        assert within_ulps_of_the_exact_root(rep.cubic, rep.x_star, 4)


def adjacent_sign_change(cubic, x):
    """x is 0.5*(lo + hi) of adjacent floats lo < hi with Horner p(lo) <= 0 < p(hi)."""
    for lo in (math.nextafter(x, -math.inf), x):
        hi = math.nextafter(lo, math.inf)
        if 0.5 * (lo + hi) == x and cubic_value(cubic, lo) <= 0.0 < cubic_value(cubic, hi):
            return True
    return False


def config_cubics(configs):
    """_coeffs of every admissible cell of the configs."""
    return [_coeffs(b, g, bt) for cfg in configs for b, g, bt in config_cells(cfg)]


def gate_cubics():
    """The reference cubics of the gate's 648 cells."""
    return config_cubics(cfg for _name, cfg in gate_configs())


class CountedH0(float):
    """An h0 that counts Horner values: each ends in `... + h0`, one __radd__ call."""

    count = 0

    def __radd__(self, other):
        self.count += 1
        return other + float(self)


class TestSignChangeRoot:
    # _bisection_root closes a sign-change bracket to adjacent floats by guarded
    # Newton, nextafter steps and halving; the exact root of the printed
    # cubic in Fraction arithmetic is the reference, independent of its path
    def assert_exact(self, cubic):
        x = _bisection_root(cubic)
        assert adjacent_sign_change(cubic, x), (cubic, x)
        assert within_ulps_of_the_exact_root(cubic, x, 4), (cubic, x)

    def test_gate_and_default_table_roots_are_exact(self):
        cubics = gate_cubics() + config_cubics([RunConfig()])
        assert len(cubics) == 648 + 101
        for cubic in cubics:
            self.assert_exact(cubic)

    @given(g=st.floats(1.0001, 10.0), bt=st.floats(0.0, 0.999), frac=st.floats(0.0, 1.0))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_sampled_admissible_roots_are_exact(self, g, bt, frac):
        upper = beta_upper(g, bt)
        b = 1.0 + (upper - 1.0) * frac
        assume(_within(b, upper))
        self.assert_exact(_coeffs(b, g, bt))

    @pytest.mark.parametrize("cubic", [(-12.0, 18.0, -7.5, 1.0, 0.0, 0.0),
                                       (-1e308, 0.0, 0.0, 1e308, 0.0, 0.0)],
                             ids=["vanishing", "overflowing"])
    def test_bad_derivative_takes_a_halving_step(self, cubic):
        # the bracket is [1, 2] and Newton starts at 2, where p'(2) = 0 exactly for
        # x^3 - 7.5x^2 + 18x - 12 and 3*h3*x overflows for 1e308*(x^3 - 1); the
        # midpoint replaces that step, with no exception and plain halving's float
        x = _bisection_root(cubic)
        assert x == bisect_cubic(cubic, 1.0, 2.0)
        self.assert_exact(cubic)

    @pytest.mark.parametrize("cubic", [(1.0, 1.0, 1.0, 1.0, 0.0, 0.0),
                                       (-1.0, 0.0, 0.0, -1.0, 0.0, 0.0)],
                             ids=["positive-down-to-zero", "never-positive"])
    def test_no_positive_root_is_a_domain_error(self, cubic):
        # X^3 + X^2 + X + 1 stays > 0 as lo halves down to 0; -X^3 - 1 stays < 0
        # as hi doubles up to 2**1023
        for root in (_bisection_root, positive_root):
            with pytest.raises(DomainError, match="^cubic has no positive root$"):
                root(cubic)

    def test_gate_roots_take_at_most_25_evaluations_on_average(self):
        # plain halving to adjacent floats took 57.6 Horner values per gate root
        counts = []
        for cubic in gate_cubics():
            h0 = CountedH0(cubic[0])
            assert _bisection_root((h0, *cubic[1:])) == _bisection_root(cubic)
            counts.append(h0.count)
        assert len(counts) == 648 and sum(counts) / len(counts) <= 25.0


class TestOneCubicType:
    # each cubic kernel takes any 6-tuple (h0, h1, h2, h3, m, n): the plain
    # tuple of _coeffs on the table's hot path, a CubicForm from the API
    def test_plain_tuple_and_cubic_form_agree_bit_for_bit(self):
        rng = random.Random(20261018)

        def results(cubic):
            x = positive_root(cubic)
            values = (x, _bisection_root(cubic), cubic_value(cubic, x),
                      cubic_value(cubic, 0.5 * x), cubic_value(cubic, 2.0 * x))
            return [v.hex() for v in values]

        for _ in range(400):
            g = rng.uniform(1.05, 3.0)
            bt = rng.uniform(0.0, 0.95)
            b = rng.uniform(1.0, (g + 1.0) / (g - 1.0 + 2.0 * bt))
            plain = _coeffs(b, g, bt)
            form = cubic_coefficients(b, GasModel(g, bt))
            assert type(plain) is tuple and type(form) is CubicForm
            assert results(plain) == results(form)

    def test_criterion_reports_the_public_cubic(self, covolume_gas):
        for beta in (1.0, 1.7, 2.3):
            cubic = criterion(beta, covolume_gas).cubic
            assert type(cubic) is CubicForm
            assert cubic == cubic_coefficients(beta, covolume_gas)
            assert cubic._fields == ("h0", "h1", "h2", "h3", "m", "n")


ENTRY_POINTS = {
    "beta_r_from_angles": lambda gas, b: beta_r_from_angles(b, 1.0, -0.5, gas),
    "cubic_coefficients": lambda gas, b: cubic_coefficients(b, gas),
    "tan_phi_r_branches": lambda gas, b: tan_phi_r_branches(b, 1.0, gas),
    "F_eval": lambda gas, b: F_eval(b, 1.0, gas),
    "criterion": lambda gas, b: criterion(b, gas),
}


class TestValidationAfterKernelSplit:
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "gas, fragment",
        [(GasModel(1.0, 0.0), "gamma"), (GasModel(0.5, 0.0), "gamma"),
         (GasModel(1.4, 1.0), "btilde"), (GasModel(1.4, 1.5), "btilde")],
    )
    def test_bad_gas_raises(self, name, gas, fragment):
        with pytest.raises(DomainError, match=fragment):
            ENTRY_POINTS[name](gas, 1.2)

    @pytest.mark.parametrize("name", [n for n in ENTRY_POINTS if n != "criterion"])
    def test_beta_above_bound_raises(self, name, ideal_gas):
        with pytest.raises(AdmissibilityError):
            ENTRY_POINTS[name](ideal_gas, 6.5)

    def test_criterion_flags_beta_above_bound(self, ideal_gas):
        # criterion reports an inadmissible ratio instead of raising
        assert not criterion(6.5, ideal_gas).admissible

    def test_kernel_bit_identical_to_unhoisted_formula(self):
        for g, bt, b, t in ((1.4, 0.0, 1.2, 1.0), (1.3, 0.27, 1.9, 0.37), (5 / 3, 0.6, 1.4, 3.1)):
            gas = GasModel(g, bt)
            kernel = _beta_r_of(b, t, g, bt)
            for r in (-2.3, -0.71, -1e-3, 0.0, 0.42):
                t2 = t * t
                r2 = r * r
                den = (g + 1.0) * b * (1.0 + r2) + (g - 1.0 + 2.0 * bt * b) * (b * b * t2 - r2)
                whole = (g + 1.0) * (1.0 + b * b * t2) / den
                assert kernel(r) == whole
                assert beta_r_from_angles(b, t, r, gas) == whole

    def test_kernel_keeps_pole_error(self):
        # the scan oracle relies on this to step over a vanishing denominator;
        # the unchecked kernel accepts b = 0, where it vanishes at r = 0
        with pytest.raises(DomainError, match="denominator"):
            _beta_r_of(0.0, 1.0, 1.4, 0.0)(0.0)


class TestBranches:
    def test_degenerate_shock_branch_values(self, ideal_gas):
        for t in (0.3, 1.0, 2.0):
            minus, plus, _ = tan_phi_r_branches(1.0, t, ideal_gas)
            assert minus == pytest.approx(-t, rel=1e-12)
            assert plus == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_radicand_coincidence(self):
        gas = GasModel(1.4, 0.1)
        beta = 1.3
        j = criterion(beta, gas).J
        t = math.sqrt(j)
        minus, plus, f = tan_phi_r_branches(beta, t, gas)
        assert f == pytest.approx(0.0, abs=1e-9)
        coincide = (
            -t * (1.0 + beta * beta * t * t) * (1.0 - 0.1 * beta)
            / ((1.0 + beta * t * t) * ((1.4 + 1.0 - 0.2) * beta - 0.4))
        )
        assert minus == pytest.approx(coincide, rel=1e-5)
        assert plus == pytest.approx(coincide, rel=1e-5)

    def test_frozen_value(self, ideal_gas):
        minus, plus, f = tan_phi_r_branches(1.2, 1.0, ideal_gas)
        assert f == pytest.approx(2.810944, rel=1e-14)
        assert minus == pytest.approx(-0.7545064166740298, rel=1e-12)
        assert plus == pytest.approx(-0.13992173581863873, rel=1e-12)

    def test_detachment_raises(self, ideal_gas):
        j = criterion(2.0, ideal_gas).J
        with pytest.raises(DetachmentError):
            tan_phi_r_branches(2.0, math.sqrt(j) * 0.9, ideal_gas)


class TestBetaRFromAngles:
    def test_equal_angles_identity_at_unit_strength(self, covolume_gas):
        assert beta_r_from_angles(1.0, 0.7, 0.7, covolume_gas) == pytest.approx(1.0, rel=1e-14)

    @given(
        beta=st.floats(1.01, 3.0),
        t=st.floats(0.1, 2.0),
        bt=st.floats(0.0, 0.3),
    )
    @settings(max_examples=60)
    def test_entropy_violating_branch(self, beta, t, bt):
        gas = GasModel(1.4, bt)
        if beta >= admissible_beta_bounds(gas)[1]:
            return
        assert beta_r_from_angles(beta, t, beta * t, gas) == pytest.approx(
            1.0 / beta, rel=1e-12
        )

    def test_hand_value_with_mach_elimination_oracle(self):
        def oracle(beta, t, r, gas):
            g, bt = gas.gamma, gas.btilde
            m1_sq = (
                2.0 * (1.0 - bt * beta) * (1.0 + beta * beta * t * t)
                / ((g + 1.0) * beta - (g - 1.0 + 2.0 * bt * beta))
            )
            return m1_sq * (g + 1.0) / (
                2.0 * (1.0 + r * r) * (1.0 - bt * beta) + m1_sq * (g - 1.0 + 2.0 * bt * beta)
            )

        gas = GasModel(1.4, 0.0)
        assert beta_r_from_angles(2.0, 1.0, 0.5, gas) == pytest.approx(1.6, rel=1e-13)
        assert beta_r_from_angles(2.0, 1.0, 0.5, gas) == pytest.approx(
            oracle(2.0, 1.0, 0.5, gas), rel=1e-13
        )
        gas2 = GasModel(1.4, 0.12)
        assert beta_r_from_angles(1.7, 1.0, 0.5, gas2) == pytest.approx(
            oracle(1.7, 1.0, 0.5, gas2), rel=1e-13
        )


class TestCriterion:
    def test_inadmissible_flagged_not_raised(self):
        rep = criterion(3.0, GasModel(1.4, 0.5))
        assert not rep.admissible
        assert rep.J is None
        assert rep.upper_beta == pytest.approx(2.4 / 1.4, rel=1e-14)

    def test_threshold_continuity_at_unit_strength(self, ideal_gas):
        # J ~ 2*(gamma+1)*(beta-1)/(1-btilde) near beta = 1
        eps = 1e-8
        rep = criterion(1.0 + eps, ideal_gas)
        assert rep.J == pytest.approx(2.0 * 2.4 * eps, rel=0.2)
        assert criterion(1.0, ideal_gas).J == 0.0

    def test_frozen_threshold(self, ideal_gas):
        rep = criterion(1.2, ideal_gas)
        assert rep.J == pytest.approx(0.6420686534161867, rel=1e-12)
        assert math.tan(rep.phi_star) ** 2 == pytest.approx(rep.J, rel=1e-13)

    def test_root_overflow_is_a_domain_error(self):
        # m**3 overflows a float in the closed-form root
        with pytest.raises(DomainError, match=r"gamma=2.6168464956334917e\+41"):
            criterion(0.999999999999, GasModel(2.6168464956334917e41, 0.0))

    def test_infinite_coefficients_are_a_domain_error(self):
        # h2, m and n come back -inf without an OverflowError being raised
        with pytest.raises(DomainError, match=r"overflows a float at gamma=1.8e\+289"):
            criterion(1.000000000001, GasModel(1.8e289, 0.0))

    def test_threshold_increases_with_btilde(self):
        js = [criterion(1.4, GasModel(1.4, bt)).J for bt in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(b > a for a, b in zip(js, js[1:]))


class TestSolveRegularReflection:
    def test_identity_state_at_unit_strength(self, ideal_gas):
        sol = solve_regular_reflection(IncidentShockInput(1.0, 0.8), 0.6, ideal_gas)
        assert sol.beta_r == pytest.approx(1.0, rel=1e-14)
        assert sol.delta_r == pytest.approx(0.0, abs=1e-14)
        assert sol.state2 == pytest.approx((1.0, 0.0, 0.0, 1.0), abs=1e-12)

    @pytest.mark.parametrize("btilde", [0.0, 0.1])
    def test_deflection_cancellation(self, btilde):
        gas = GasModel(1.4, btilde)
        sol = solve_regular_reflection(IncidentShockInput(1.2, math.pi / 4), math.pi / 4, gas)
        tan_di = 0.2 / 2.2
        assert abs(tan_di + math.tan(sol.delta_r)) <= 1e-10
        rho2, u2, v2, p2 = sol.state2
        assert v2 == pytest.approx(u2 * math.tan(math.pi / 4), rel=1e-12)
        assert rho2 == pytest.approx(1.2 * sol.beta_r, rel=1e-14)
        assert p2 > 1.0

    def test_deflection_matches_direct_relation(self, ideal_gas):
        sol = solve_regular_reflection(IncidentShockInput(1.2, math.pi / 4), 0.7, ideal_gas)
        direct = _tan_delta_r(1.2, 1.0, math.tan(sol.phi_r), 1.4, 0.0)
        assert math.tan(sol.delta_r) == pytest.approx(direct, rel=1e-13)

    def test_detachment_below_critical_angle(self, ideal_gas):
        phi_star = criterion(2.0, ideal_gas).phi_star
        with pytest.raises(DetachmentError):
            solve_regular_reflection(IncidentShockInput(2.0, phi_star * 0.8), 0.7, ideal_gas)

    def test_reflected_ratio_bound_holds_when_attached(self):
        for bt in (0.0, 0.2):
            gas = GasModel(1.4, bt)
            for beta in (1.1, 1.5, 2.0):
                phi_star = criterion(beta, gas).phi_star
                for frac in (1.0, 1.2, 1.6):
                    phi = min(phi_star * frac, 1.5)
                    sol = solve_regular_reflection(IncidentShockInput(beta, phi), 0.7, gas)
                    upper = (1.4 + 1.0) / (1.4 - 1.0 + 2.0 * bt * beta)
                    assert 1.0 - 1e-12 <= sol.beta_r <= upper


def criterion_grid(betas, btildes, g):
    """criterion's report of each (beta_i, btilde) cell at gamma g."""
    gases = [GasModel(g, bt) for bt in btildes]
    return {(beta, gas.btilde): criterion(beta, gas) for beta in betas for gas in gases}


class TestTableGenerate:
    def test_blank_pattern_matches_fixture(self):
        grid = criterion_grid(FIXTURE_BETA, FIXTURE_BTILDE, 1.4)
        for beta in FIXTURE_BETA:
            for bt in FIXTURE_BTILDE:
                assert (not grid[(beta, bt)].admissible) == (fixture_value(beta, bt) is None)

    def test_rows_increase_with_btilde(self):
        grid = criterion_grid(FIXTURE_BETA, FIXTURE_BTILDE, 1.4)
        for beta in FIXTURE_BETA:
            vals = [grid[(beta, bt)].J for bt in FIXTURE_BTILDE if grid[(beta, bt)].admissible]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_columns_increase_up_to_the_known_peak(self):
        grid = criterion_grid(FIXTURE_BETA, FIXTURE_BTILDE, 1.4)
        for bt in FIXTURE_BTILDE:
            vals = [
                grid[(beta, bt)].J
                for beta in FIXTURE_BETA
                if beta <= 3.2 and grid[(beta, bt)].admissible
            ]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_known_dip_at_top_of_ideal_column(self):
        # the threshold from the printed cubic peaks near beta = 3.4 at
        # btilde = 0 and then falls; the stored fixture dips at the same
        # corner (1.0518 -> 1.0513), so this is pinned as a regression
        grid = criterion_grid(FIXTURE_BETA, [0.0], 1.4)
        assert grid[(3.6, 0.0)].J < grid[(3.4, 0.0)].J
        assert grid[(4.0, 0.0)].J < grid[(3.8, 0.0)].J

    def test_ideal_column_matches_specialized_code(self):
        # hard-coded zero-covolume cubic as the reduction oracle
        def ideal_threshold(beta, g):
            h0 = -((beta - 1.0) ** 2) / beta
            h1 = (beta - 1.0) * (3.0 - 1.0 / beta) - 2.0 * (beta - 1.0) * (
                (g + 1.0) * beta - (g - 1.0)
            )
            h2 = -((3.0 * beta - 2.0) + (beta - 1.0) * ((g + 1.0) * beta - (g - 1.0)) * (g - 1.0))
            h3 = beta
            lo, hi = 1e-9, 2.0
            while h0 + hi * (h1 + hi * (h2 + hi * h3)) <= 0.0:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    break
                if h0 + mid * (h1 + mid * (h2 + mid * h3)) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return (0.5 * (lo + hi) - 1.0) / beta

        grid = criterion_grid(FIXTURE_BETA, [0.0], 1.4)
        for beta in FIXTURE_BETA:
            assert grid[(beta, 0.0)].J == pytest.approx(ideal_threshold(beta, 1.4), abs=1e-11)
