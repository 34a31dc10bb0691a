"""The gate's two oracle checks validate once and call the unchecked kernels.

``reference_cubic_cells`` below is the cubic check's loop as it was before
the flattening: it builds each cell's cubic with the public
``cubic_coefficients``, takes the residual from ``cubic_value`` and the
coefficient-sum reference from ``F_eval``, and keeps its maxima with
``max()``.  It visits the cells in the shipped check's row order (gamma,
then beta, then btilde).  The shipped check must give the same floats, cell
by cell, and the same result; ``reference_cubic_check`` writes its own
verdict, so the reference does not run ``checks._result``.  The field check
reads its ideal-gas grid from the field command's row kernel, whose cells
must be the pointwise field's to the bit.
"""

import math

from vdwshock import checks
from vdwshock.linear_acoustics import density_rows, diffracted_density_xi
from vdwshock.regular_reflection import (F_eval, _bisection_root, cubic_coefficients, cubic_value,
                                         positive_root)
from vdwshock.shock_relations import beta_upper
from vdwshock.thermo import GasModel, reference_constants


def reference_cubic_cells():
    """(x_c, x_b, scaled residual, coefficient-sum error) of each admissible cell."""
    betas = [1.1 + 0.1 * i for i in range(29)]
    btildes = [0.05 * i for i in range(15)]
    cells = []
    for g in [1.1, 1.4, 5.0 / 3.0]:
        for beta in betas:
            for bt in btildes:
                gas = GasModel(g, bt)
                upper = beta_upper(g, bt)
                if not 1.0 < beta <= upper * (1.0 + 1e-12):
                    continue
                cubic = cubic_coefficients(beta, gas)
                x_c = positive_root(cubic)
                x_b = _bisection_root(cubic)
                scale = cubic.h3 * x_c ** 3
                h_sum = cubic.h0 + cubic.h1 + cubic.h2 + cubic.h3
                f0 = F_eval(beta, 0.0, gas)
                cells.append((x_c, x_b, abs(cubic_value(cubic, x_c)) / scale,
                              abs(h_sum - f0) / abs(f0)))
    return cells


def reference_cubic_check(cells):
    worst_res = worst_root = worst_sum = 0.0
    for x_c, x_b, res, sum_err in cells:
        worst_root = max(worst_root, abs(x_c - x_b))
        worst_res = max(worst_res, res)
        worst_sum = max(worst_sum, sum_err)
    ok = worst_res <= 1e-9 and worst_root <= 1e-10 and worst_sum <= 1e-12
    note = (
        f"{len(cells)} admissible cells; max |F(x*)|/(h3 x*^3)={worst_res:.3e}, "
        f"max root disagreement={worst_root:.3e}, max coefficient-sum error={worst_sum:.3e}"
    )
    return checks.CheckResult("cubic_self_consistency", checks.PASS if ok else checks.FAIL,
                              max(worst_res, worst_root, worst_sum), 1e-9, note)


def _hex(cells):
    return [tuple(map(float.hex, cell)) for cell in cells]


def test_flat_cubic_cells_match_the_public_functions():
    want = reference_cubic_cells()
    assert len(want) == 648
    assert _hex(checks._cubic_cells()) == _hex(want)


def test_flat_cubic_check_matches_the_reference():
    want = reference_cubic_check(reference_cubic_cells())
    got = checks.check_cubic_self_consistency()
    assert got == want
    assert got.residual.hex() == want.residual.hex()
    assert got.note == want.note
    assert got.status == checks.PASS


CHECKED = ("validate_gas", "check_incident_beta", "cubic_coefficients", "F_eval", "criterion")


def test_cubic_check_validates_each_gas_once(count_calls):
    counts = count_calls(CHECKED)
    assert checks.check_cubic_self_consistency().status == checks.PASS
    # three gammas by 15 btildes; no cell goes through a checked entry point
    assert counts == {"validate_gas": 45, "check_incident_beta": 0, "cubic_coefficients": 0,
                      "F_eval": 0, "criterion": 0}


def test_reflection_check_reads_the_unchecked_criterion(count_calls):
    # one _criterion entry per sample, and no validating criterion call
    counts = count_calls(["criterion", "_criterion"])
    assert checks.check_reflection_solve().status == checks.PASS
    assert counts == {"criterion": 0, "_criterion": 200}



def test_field_check_grid_is_the_pointwise_field():
    # check_linear_field's ideal-gas grid, from one density_rows call
    alpha = math.pi / 4.0
    ref = reference_constants(1.0, 1.0, GasModel(1.4, 0.0))
    sigmas = [i / 10.0 for i in range(1, 10)]
    thetas = [alpha + (math.pi - alpha) * j / 9.0 for j in range(10)]
    got = [list(map(float.hex, rhos)) for _tag, _regions, rhos in
           density_rows(sigmas, thetas, alpha, ref)]
    want = [[diffracted_density_xi(sigma, theta, alpha, ref).rho1.hex() for theta in thetas]
            for sigma in sigmas]
    assert got == want
