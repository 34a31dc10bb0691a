"""The threshold row kernel gives the single-cubic API's floats; busemann_variable the builtins'.

``reference_threshold`` below is one cell through the single-cubic API:
``_coeffs(...)``, its root, the one mapping of an overflow to a
``DomainError`` and the clamp ``max(0, (x* - 1)/beta)``, laid out as the
kernel's cell ``(*_coeffs(...), x*, J, phi*)``.  The root is
``positive_root(cubic)`` on a cell that a spy sees the kernel hand to its
fallback, and the closed form ``_depressed_root(m, n) - h2/(3*h3)`` on every
other.  ``reference_row`` is ``None`` where ``shock_relations._within``
rejects the column and that cell elsewhere.  ``_threshold_row`` must give its
entries, the printed cubic included, bit for bit on every admissible cell of
the default table, of the benchmark's ``threshold_table`` inputs (seeds 0-2)
and of the gate's 648, and raise its exception, first in row order, on a
sweep of fallback and error cells.  On every fallback cell of that sweep the
root must be the printed cubic's largest real root, within 4 ulps, in exact
arithmetic.  The printed m and n must be the depressed form of the printed
h0..h3 to within their rounding, and ``criterion`` and ``table`` must print
the kernel's cubic and band without building another.  ``busemann_variable``
must return the float of its former builtin ``min``/``max`` form on every
input it accepts, -0.0 included.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from vdwshock import cli, regular_reflection, reports
from vdwshock.config import RunConfig, parse_config
from vdwshock.linear_acoustics import busemann_variable
from vdwshock.regular_reflection import (CubicForm, _coeffs, _cubic_error, _depressed_root,
                                         _threshold_columns, _threshold_row, positive_root)
from vdwshock.shock_relations import ENDPOINT_SLACK, _within, beta_upper

from conftest import perfbench


def seeded_configs(workloads, seed):
    """(name, config) of each threshold_table input of the seed."""
    configs = []
    for k, inv in enumerate(workloads.generate("threshold_table", seed)):
        argv = inv.argv
        overrides = {key[2:]: json.loads(value) for key, value in zip(argv[1::2], argv[2::2])}
        configs.append((f"seed{seed}-{k}", parse_config(None, overrides)))
    return configs


def table_configs():
    """The default table and the threshold_table inputs of seeds 0, 1 and 2."""
    return [("default", RunConfig())] + [
        named for seed in range(3) for named in seeded_configs(perfbench("workloads"), seed)]


def gate_configs():
    """The grids of the gate's cubic_self_consistency: three gammas, 29 ratios, 15 btildes."""
    betas = [1.1 + 0.1 * i for i in range(29)]
    btildes = [0.05 * i for i in range(15)]
    return [(f"gate-{g}", RunConfig(gamma=g, beta_grid=betas, btilde_grid=btildes))
            for g in (1.1, 1.4, 5.0 / 3.0)]


def admissible_cells(cfg):
    g = cfg.gamma
    for bt in cfg.btilde_grid:
        upper = beta_upper(g, bt)
        for beta in cfg.beta_grid:
            if _within(beta, upper):
                yield beta, g, bt


def hexes(values):
    return [float.hex(v) for v in values]


def reference_threshold(b, g, bt, fallback):
    """The cell (h0, h1, h2, h3, m, n, x*, J, phi*) of one admissible cell, single-cubic API.

    x* is positive_root's for a cubic in fallback, else the closed form.
    """
    try:
        cubic = _coeffs(b, g, bt)
        h0, h1, h2, h3, m, n = cubic
        if cubic in fallback:
            x_star = positive_root(cubic)
        else:
            x_star = _depressed_root(m, n) - h2 / (3.0 * h3)
    except (OverflowError, ZeroDivisionError) as exc:
        raise _cubic_error(exc, g, bt, b) from exc
    j = max(0.0, (x_star - 1.0) / b)
    return (*cubic, x_star, j, math.atan(math.sqrt(j)))


def reference_row(b, g, btildes, fallback):
    """One entry per column: None where _within rejects b, else the reference cell."""
    return [reference_threshold(b, g, bt, fallback) if _within(b, beta_upper(g, bt)) else None
            for bt in btildes]


def spy_on_the_fallback(monkeypatch):
    """The list of the cubics that the kernel hands to positive_root from here on."""
    calls = []

    def spy(cubic):
        calls.append(cubic)
        return positive_root(cubic)

    monkeypatch.setattr(regular_reflection, "positive_root", spy)  # the kernel's fallback only
    return calls


def row_hexes(row):
    return [None if cell is None else hexes(cell) for cell in row]


def outcome(call):
    """row_hexes of the row call() returns, or the type and message of what it raises."""
    try:
        return row_hexes(call())
    except Exception as exc:
        return type(exc).__name__, str(exc)


def checked_cells(configs, calls):
    """Admissible cells of the configs, each row's kernel entries checked against the reference.

    calls is the list of spy_on_the_fallback.
    """
    cells = 0
    for name, cfg in configs:
        g = cfg.gamma
        columns = _threshold_columns(g, cfg.btilde_grid)
        for beta in cfg.beta_grid:
            calls.clear()
            got = row_hexes(_threshold_row(beta, g, columns))
            want = reference_row(beta, g, cfg.btilde_grid, calls)
            assert got == row_hexes(want), (name, beta)
            cells += sum(cell is not None for cell in want)
    return cells


def test_row_kernel_matches_the_single_cubic_api_on_every_table_cell(monkeypatch):
    calls = spy_on_the_fallback(monkeypatch)
    default, *seeded = table_configs()
    assert checked_cells([default], calls) == 101
    assert checked_cells(seeded, calls) > 100_000
    assert checked_cells(gate_configs(), calls) == 648


#: unit roundoff of a float: each correctly rounded +, -, *, / errs by at most U relatively
U = Fraction(1, 2 ** 53)


def depressed_form_errors(cubic):
    """|m - M|/bound_m and |n - N|/bound_n of a printed cubic, in exact arithmetic.

    With Bk = hk/h3 of the printed floats taken as exact rationals, the
    depressed form is M = B1 - B2^2/3 and N = B0 - B1*B2/3 + 2*B2^3/27.  The
    kernel forms m = b1 - b2*b2/3 and n = h0/h3 - b1*b2/3 + 2*b2**3/27 in
    float, with b2 = h2/h3 and b1 = h1/h3.  Each +, -, *, / errs by at most U
    relatively, and b2**3 (the C library's pow) by at most one ulp, 2U.  So
    each term of m and n carries at most k relative errors of size U:
    - in m, b1 two (the division and the difference) and b2*b2/3 five (two
      from b2, the product, the /3 and the difference);
    - in n, h0/h3 three, b1*b2/3 six and 2*b2**3/27 seven (three from b2,
      two from pow, the /27 and the sum; *2 is exact).
    Hence |m - M| <= gamma_5*S_m and |n - N| <= gamma_7*S_n, where S is the
    sum of the terms' magnitudes and gamma_k = k*U/(1 - k*U) < (k + 1)*U.
    The bounds are 6U*S_m and 8U*S_n; a ratio above 1 is not rounding.
    """
    h0, h1, h2, h3, m, n = map(Fraction, cubic)
    b0, b1, b2 = h0 / h3, h1 / h3, h2 / h3
    m_exact = b1 - b2 * b2 / 3
    n_exact = b0 - b1 * b2 / 3 + 2 * b2 ** 3 / 27
    s_m = abs(b1) + b2 * b2 / 3
    s_n = abs(b0) + abs(b1 * b2) / 3 + 2 * abs(b2) ** 3 / 27
    return abs(m - m_exact) / (6 * U * s_m), abs(n - n_exact) / (8 * U * s_n)


def printed_cubic(beta, g, bt):
    """h0..h3, m, n as the criterion command prints them, or None for an inadmissible cell."""
    payload = json.loads(reports.render_criterion(RunConfig(gamma=g, btilde=bt, beta_i=beta)))
    return None if payload["h0"] is None else [payload[f] for f in CubicForm._fields]


def test_printed_m_n_are_the_depressed_form_of_the_printed_cubic():
    default = RunConfig()
    cells = [(beta, default.gamma, bt) for bt in default.btilde_grid for beta in default.beta_grid]
    seeded = [cell for _name, cfg in seeded_configs(perfbench("workloads"), 0)
              for cell in admissible_cells(cfg)]
    cells += random.Random(0).sample(seeded, 1500)
    worst = [Fraction(0), Fraction(0)]
    printed = 0
    for beta, g, bt in cells:
        cubic = printed_cubic(beta, g, bt)
        if cubic is None:
            continue
        printed += 1
        errors = depressed_form_errors(cubic)
        worst = [max(w, e) for w, e in zip(worst, errors)]
        assert errors[0] <= 1 and errors[1] <= 1, (beta, g, bt, [float(e) for e in errors])
    assert printed == 101 + 1500  # the sample is drawn from admissible cells
    assert max(worst) > 0  # some cell rounds, so the bound is exercised


def test_criterion_and_table_take_the_cubic_and_the_band_from_the_kernel(capsys, count_calls):
    names = ("_coeffs", "_threshold_row", "_within")
    criterion_calls = count_calls(names)
    assert cli.main(["criterion"]) == 0
    assert criterion_calls == {"_coeffs": 0, "_threshold_row": 1, "_within": 0}
    table_calls = count_calls(names)  # counts from here on
    assert cli.main(["table"]) == 0
    capsys.readouterr()
    assert table_calls == {"_coeffs": 0, "_threshold_row": len(RunConfig().beta_grid),
                           "_within": 0}


def sweep_grid(rng):
    """Weak shocks, band ends and btilde*beta_i -> 1 at a gamma near 1, moderate or huge."""
    g = rng.choice([1.0 + 10.0 ** -rng.uniform(1.0, 15.0), rng.uniform(1.05, 3.0),
                    10.0 ** rng.uniform(1.0, 300.0)])
    btildes = [rng.uniform(0.0, 0.95) for _ in range(3)] + [rng.choice([0.0, 0.5, 1.0 - 1e-9])]
    betas = [1.0 + 10.0 ** -rng.uniform(0.0, 15.0) for _ in range(3)] + [1.0 - ENDPOINT_SLACK, 1.0]
    for bt in btildes:
        top = beta_upper(g, bt) * (1.0 + ENDPOINT_SLACK)
        betas += [top, math.nextafter(top, 0.0), 1.0 / bt if bt else 2.0]
    return g, betas, btildes


def test_row_kernel_raises_like_pointwise_on_fallback_and_error_cells(monkeypatch):
    calls = spy_on_the_fallback(monkeypatch)
    kinds = set()
    fallback_rows = 0
    for seed in range(200):
        g, betas, btildes = sweep_grid(random.Random(seed))
        columns = _threshold_columns(g, btildes)
        for beta in betas:
            calls.clear()
            got = outcome(lambda: _threshold_row(beta, g, columns))
            fallback_rows += bool(calls)
            assert got == outcome(lambda: reference_row(beta, g, btildes, calls)), (seed, beta)
            if isinstance(got, tuple):
                kinds.add((got[0], got[1].split(":")[0].split(" at ")[0]))
    assert fallback_rows > 300
    assert kinds == {
        ("DomainError", "threshold cubic overflows a float"),
        ("DomainError", "covolume fraction btilde*beta_i of state 1 reaches 1"),
    }


def is_the_largest_root_within_ulps(cubic, x, k):
    """In exact arithmetic, the cubic's largest real root lies within k ulps of x.

    The cubic h0..h3 of the printed floats changes sign from - to + on
    [x - k ulps, x + k ulps], and no coefficient of p(x + k ulps + y) in y is
    negative, so by Descartes' rule of signs p has no root above that bracket.
    """
    h0, h1, h2, h3 = map(Fraction, cubic[:4])
    width = k * Fraction(math.ulp(x))
    lo, hi = Fraction(x) - width, Fraction(x) + width

    def p(t):
        return ((h3 * t + h2) * t + h1) * t + h0

    return p(lo) <= 0 and min(p(hi), (3 * h3 * hi + 2 * h2) * hi + h1, 3 * h3 * hi + h2, h3) >= 0


def test_fallback_roots_are_the_largest_exact_root(monkeypatch):
    # the certificate refuses these cells, and the kernel prints positive_root's
    # sign-change root (bit for bit, as above), measured within 2 ulps here
    calls = spy_on_the_fallback(monkeypatch)
    for seed in range(200):
        g, betas, btildes = sweep_grid(random.Random(seed))
        columns = _threshold_columns(g, btildes)
        for beta in betas:
            outcome(lambda: _threshold_row(beta, g, columns))
    assert len(calls) > 800
    for cubic in calls:
        assert is_the_largest_root_within_ulps(cubic, positive_root(cubic), 4), cubic


#: busemann_variable takes 0 <= sigma <= 1 + 1e-12: both zeros, the least subnormal,
#: 1 -+ 1 ulp, the upper end and three values inside
SIGMAS = [0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), -0.0,
          1.0 + 1e-12, 1e-300, 0.9999999]


def reference_busemann(sigma):
    sigma = min(sigma, 1.0)
    return sigma / (1.0 + math.sqrt(max(0.0, 1.0 - sigma * sigma)))


@pytest.mark.parametrize("sigma", SIGMAS)
def test_busemann_variable_matches_the_builtin_form(sigma):
    assert float.hex(busemann_variable(sigma)) == float.hex(reference_busemann(sigma))
