"""Exact symbolic oracle for the threshold cubic.

The wedge-condition radicand F = term1 - term2 is a cubic in
X = 1 + beta*t^2 with the printed coefficients h0..h3.  sympy proves that
identity in all four symbols, and the float kernel _coeffs is compared with
the exact coefficients (and the exact depressed constants m, n) at rational
points, so a slip in any coefficient formula fails here even though the
table and criterion paths would agree with each other.

The reflected-angle quadratic gets the same treatment: the wedge condition,
composed from the kernel _beta_r_of and the deflection relation as the
gate's scan oracle composes it, factorises into (beta*t - r) times the
quadratic Q(r) whose roots tan_phi_r_branches returns, and Q's
half-discriminant is the radicand of _f_terms.  The closed form is then an
identity in all five symbols rather than a sampled agreement.

For the ideal gas (btilde = 0) the threshold J = tan^2(phi_star) has a
closed-form maximum over beta: J_max = (gamma+1)/(3-gamma), reached at the
larger root beta* of (g-2)(g+1)b^2 - 2g(g-3)b + (g-2)(g-3), which meets the
band's top (g+1)/(g-1) at gamma_c = (7 + sqrt(33))/8.  At gamma = 1.4 that
is J_max = 1.5 at beta* = 3.3124 < 4, so the default table's gamma = 1.4
column cannot rise strictly over beta up to 4 (the red table_trends check).
"""

import math

import mpmath
import pytest
import sympy as sp

from vdwshock.regular_reflection import _beta_r_of, _branches, _coeffs, _f_terms, criterion
from vdwshock.thermo import GasModel

beta, t, gamma, btilde, X = sp.symbols("beta t gamma btilde X", positive=True)
r = sp.symbols("r", real=True)  # tan(phi_r); negative on the physical branch


def radicand():
    # F from the reflected-angle formula: F >= 0 iff regular reflection
    t2 = t ** 2
    a_coef = (gamma + 1 - 2 * btilde) * beta - (gamma - 1)
    term1 = t2 * (1 + beta ** 2 * t2) ** 2 * (1 - btilde * beta) ** 2
    term2 = ((beta - 1) * (1 + beta * t2) * a_coef
             * ((gamma - 1 + 2 * btilde * beta) * beta * t2 + (gamma + 1)))
    return term1 - term2


def printed_coefficients():
    c = (1 - btilde * beta) ** 2
    a_coef = (gamma + 1 - 2 * btilde) * beta - (gamma - 1)
    g_coef = gamma - 1 + 2 * btilde * beta
    h0 = -c * (beta - 1) ** 2 / beta
    h1 = c * (beta - 1) * (3 - 1 / beta) - 2 * (beta - 1) * (1 - btilde * beta) * a_coef
    h2 = -((3 * beta - 2) * c + (beta - 1) * a_coef * g_coef)
    h3 = beta * c
    return h0, h1, h2, h3


def test_radicand_is_the_printed_cubic():
    h0, h1, h2, h3 = printed_coefficients()
    x = 1 + beta * t ** 2
    assert sp.expand(radicand() - (h3 * x ** 3 + h2 * x ** 2 + h1 * x + h0)) == 0


def derived_coefficients():
    # coefficients read off F itself, with t^2 = (X - 1)/beta
    poly = sp.Poly(sp.expand(radicand().subs(t, sp.sqrt((X - 1) / beta))), X)
    assert poly.degree() == 3
    return tuple(poly.coeff_monomial(X ** k) for k in range(4))


def exact_cubic(b, g, bt):
    point = {beta: b, gamma: g, btilde: bt}
    h0, h1, h2, h3 = (h.subs(point) for h in derived_coefficients())
    b2, b1, b0 = h2 / h3, h1 / h3, h0 / h3
    m = b1 - b2 ** 2 / 3
    n = b0 - b1 * b2 / 3 + 2 * b2 ** 3 / 27
    return h0, h1, h2, h3, m, n


@pytest.mark.parametrize(
    "b, g, bt",
    [(1.2, 1.4, 0.0), (2.0, 5.0 / 3.0, 0.1), (3.0, 1.05, 0.3), (1.5, 3.0, 0.5),
     (1.0001, 1.4, 0.2), (10.0, 1.1, 0.0)],
)
def test_coeffs_kernel_against_exact_coefficients(b, g, bt):
    # the rationals are the floats' exact binary values, so only the
    # kernel's own rounding separates the two
    exact = exact_cubic(sp.Rational(b), sp.Rational(g), sp.Rational(bt))
    got = _coeffs(b, g, bt)
    for name, x, e in zip(("h0", "h1", "h2", "h3", "m", "n"), got, exact):
        assert abs(sp.Rational(x) - e) <= sp.Rational(1, 10 ** 12) * abs(e), name


def exact(expr):
    # the kernels' float constants (1.0, 2.0) are exact binary values
    return expr.xreplace({f: sp.Rational(f) for f in expr.atoms(sp.Float)})


def reflected_quadratic():
    """(A, B, C) of Q(r) = A*r**2 + 2*B*r + C, the wedge condition's quadratic."""
    a_coef = (gamma + 1 - 2 * btilde) * beta - (gamma - 1)
    return (
        (1 + beta * t ** 2) * a_coef,
        t * (1 + beta ** 2 * t ** 2) * (1 - btilde * beta),
        (beta - 1) * ((gamma - 1 + 2 * btilde * beta) * beta * t ** 2 + gamma + 1),
    )


def test_wedge_condition_factorises_into_the_reflected_quadratic():
    # tan(delta_i) + tan(delta_r) with delta_r from the printed reflected
    # ratio, as the scan oracle composes them
    beta_r = exact(_beta_r_of(beta, t, gamma, btilde)(r))
    tan_di = (beta - 1) * t / (1 + beta * t ** 2)
    wedge = tan_di + (beta_r - 1) * r / (1 + beta_r * r ** 2)
    num_r, den_r = sp.fraction(beta_r)
    # clear the denominators 1 + beta*t**2 and (1 + beta_r*r**2)*den_r
    cleared = sp.cancel(wedge * (1 + beta * t ** 2) * (den_r + num_r * r ** 2))
    a, b, c = reflected_quadratic()
    quadratic = a * r ** 2 + 2 * b * r + c
    assert sp.expand(cleared - (beta * t - r) * quadratic) == 0


def test_half_discriminant_is_the_f_terms_radicand():
    a, b, c = reflected_quadratic()
    term1, term2 = _f_terms(beta, t ** 2, gamma, btilde)
    assert sp.expand(b ** 2 - a * c - exact(term1 - term2)) == 0
    assert sp.expand(b ** 2 - a * c - radicand()) == 0


@pytest.mark.parametrize(
    "b, tan_i, g, bt",
    [(1.2, 2.0, 1.4, 0.0), (2.0, 3.0, 5.0 / 3.0, 0.1), (1.5, 4.0, 1.1, 0.3),
     (3.0, 6.0, 1.4, 0.2)],
)
def test_branches_kernel_returns_the_quadratic_roots(b, tan_i, g, bt):
    point = {beta: sp.Rational(b), t: sp.Rational(tan_i), gamma: sp.Rational(g),
             btilde: sp.Rational(bt)}
    a, half_b, c = (e.subs(point) for e in reflected_quadratic())
    disc = half_b ** 2 - a * c
    assert disc > 0  # attached: two real roots
    roots = ((-half_b - sp.sqrt(disc)) / a, (-half_b + sp.sqrt(disc)) / a)
    minus, plus, f_value = _branches(b, tan_i, g, bt)
    for got, want in zip((minus, plus), roots):
        want = sp.N(want, 30)
        assert abs(sp.Rational(got) - want) <= sp.Float(1e-12, 30) * max(1, abs(want))
    assert abs(sp.Rational(f_value) - disc) <= sp.Rational(1, 10 ** 12) * abs(disc)


def test_weak_shock_expansion_of_the_threshold_cubic():
    # beta_i = 1 + eps and X = 1 + beta_i*J: beta_i times the printed cubic is
    # c3 J^3 + c2 J^2 + c1 J + c0, and the root J ~ -c0/c1 is first order in eps
    eps, j = sp.symbols("epsilon J")
    b = 1 + eps
    x = 1 + b * j
    cubic = sum(h.subs(beta, b) * x ** k for k, h in enumerate(printed_coefficients()))
    poly = sp.Poly(sp.expand(sp.cancel(b * cubic)), j)
    assert poly.degree() == 3
    c0, c1, c2, c3 = (poly.coeff_monomial(j ** k) for k in range(4))
    g, bt = gamma, btilde
    assert sp.expand(c3 - b ** 5 * (1 - bt * b) ** 2) == 0
    assert sp.expand(c0 - eps * b * (g + 1) * (2 * bt * b - (g + 1) * eps - 2)) == 0
    p2, p1 = sp.cancel(c2 / b ** 3), sp.cancel(c1 / b)
    assert sp.fraction(p2)[1] == 1 and sp.fraction(p1)[1] == 1  # polynomials
    assert sp.expand(p2.subs(eps, 0) - 2 * (1 - bt) ** 2) == 0
    assert sp.expand(p1.subs(eps, 0) - (1 - bt) ** 2) == 0
    lead = sp.series(-c0 / c1, eps, 0, 2).removeO()
    assert sp.simplify(lead - 2 * (g + 1) * eps / (1 - bt)) == 0


def beta_star_quadratic(g, b):
    return (g - 2) * (g + 1) * b ** 2 - 2 * g * (g - 3) * b + (g - 2) * (g - 3)


def beta_star(g, sqrt):
    """Larger root of beta_star_quadratic in b; its leading coefficient is < 0 for 1 < g < 2."""
    a, b, c = (g - 2) * (g + 1), -2 * g * (g - 3), (g - 2) * (g - 3)
    return (-b - sqrt(b * b - 4 * a * c)) / (2 * a)


@pytest.mark.parametrize("g", ["1.2", "1.4", "1.5"])
def test_ideal_gas_threshold_is_stationary_at_j_max(g):
    # G(beta, J) = F(beta, 1 + beta*J) vanishes on the threshold curve J(beta);
    # dJ/dbeta = -G_beta/G_J, so the curve is stationary where G_beta = 0 too
    j = sp.symbols("J", positive=True)
    x = 1 + beta * j
    big_g = sum(h.subs(btilde, 0) * x ** k for k, h in enumerate(printed_coefficients()))
    values = sp.lambdify((beta, j, gamma), (big_g, sp.diff(big_g, beta)), modules="mpmath")
    with mpmath.workdps(50):
        g = mpmath.mpf(g)
        b_star = beta_star(g, mpmath.sqrt)
        assert abs(beta_star_quadratic(g, b_star)) < mpmath.mpf(10) ** -45
        for value in values(b_star, (g + 1) / (3 - g), g):
            assert abs(value) < mpmath.mpf(10) ** -45


def test_beta_star_meets_the_band_top_at_gamma_c():
    # the band top is a root of the quadratic exactly where 4g^2 - 7g + 1 = 0,
    # and at the larger zero gamma_c it is the larger root, beta*
    g = sp.symbols("g")
    top = (g + 1) / (g - 1)
    assert sp.cancel(beta_star_quadratic(g, top) * (g - 1) ** 2 - 4 * (4 * g ** 2 - 7 * g + 1)) == 0
    gamma_c = (7 + sp.sqrt(33)) / 8
    assert sp.expand(4 * gamma_c ** 2 - 7 * gamma_c + 1) == 0
    assert sp.simplify(beta_star(gamma_c, sp.sqrt) - top.subs(g, gamma_c)) == 0


@pytest.mark.parametrize("g", [1.2, 1.4, 1.5])
def test_criterion_peaks_at_j_max(g):
    gas = GasModel(g, 0.0)
    b_star = beta_star(g, math.sqrt)
    j_max = (g + 1.0) / (3.0 - g)
    peak = criterion(b_star, gas).J
    assert abs(peak - j_max) <= 4 * math.ulp(j_max)
    assert criterion(b_star - 1e-3, gas).J < peak
    assert criterion(b_star + 1e-3, gas).J < peak


def test_criterion_peak_at_gamma_1_4_is_exactly_three_halves():
    b_star = beta_star(1.4, math.sqrt)
    assert round(b_star, 6) == 3.312376
    assert criterion(b_star, GasModel(1.4, 0.0)).J == 1.5
