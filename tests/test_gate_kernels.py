"""The gate's two oracle checks validate once and call the unchecked kernels.

The cubic check validates each of its 45 gases once and reaches no checked
entry point from a cell; the reflection check reads each sample's critical
angle from a one-column row of the unchecked kernel ``_threshold_row``.  The
field check reads its ideal-gas grid from the field command's row kernel,
whose cells must be the pointwise field's to the bit.
"""

import math

from vdwshock import checks
from vdwshock.linear_acoustics import density_rows, diffracted_density_xi
from vdwshock.thermo import GasModel, reference_constants


CHECKED = ("validate_gas", "check_incident_beta", "cubic_coefficients", "F_eval", "criterion")


def test_cubic_check_validates_each_gas_once(count_calls):
    counts = count_calls(CHECKED)
    assert checks.check_cubic_self_consistency().status == checks.PASS
    # three gammas by 15 btildes; no cell goes through a checked entry point
    assert counts == {"validate_gas": 45, "check_incident_beta": 0, "cubic_coefficients": 0,
                      "F_eval": 0, "criterion": 0}


def test_reflection_check_reads_the_unchecked_criterion(count_calls, monkeypatch):
    # one one-column row-kernel call per sample, and no validating criterion call
    counts, widths, row = count_calls(["criterion"]), [], checks._threshold_row
    monkeypatch.setattr(checks, "_threshold_row",
                        lambda b, g, columns: widths.append(len(columns)) or row(b, g, columns))
    assert checks.check_reflection_solve().status == checks.PASS
    assert counts == {"criterion": 0}
    assert widths == [1] * 200


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
