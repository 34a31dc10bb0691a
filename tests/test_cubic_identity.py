"""Exact symbolic oracle for the threshold cubic.

The wedge-condition radicand F = term1 - term2 is a cubic in
X = 1 + beta*t^2 with the printed coefficients h0..h3.  sympy proves that
identity in all four symbols, and the float kernel _coeffs is compared with
the exact coefficients (and the exact depressed constants m, n) at rational
points, so a slip in any coefficient formula fails here even though the
table and criterion paths would agree with each other.
"""

import pytest
import sympy as sp

from vdwshock.regular_reflection import _coeffs

beta, t, gamma, btilde, X = sp.symbols("beta t gamma btilde X", positive=True)


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
