"""The per-cell kernels clamp with comparisons and give the builtins' floats.

``reference_coeffs`` below is ``_coeffs`` as it was before it named
``1 - btilde*beta`` and ``beta - 1`` once each; the shipped kernel must give
the same ``float.hex`` on every admissible cell of the benchmark's
``threshold_table`` inputs (seeds 0-2) and of the default table.  Each
builtin ``max``/``min`` call that a comparison replaced, or that was dropped
as a no-op, gets a value table: on every listed input that can reach it the
replacement returns the builtin's float, bit for bit, NaN and -0.0 included.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from vdwshock.config import RunConfig, parse_config
from vdwshock.linear_acoustics import FRONT_RING, busemann_variable
from vdwshock.regular_reflection import _coeffs, _threshold
from vdwshock.shock_relations import _within, beta_upper

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_coeffs(b, g, bt):
    c = (1.0 - bt * b) ** 2
    a_coef = (g + 1.0 - 2.0 * bt) * b - (g - 1.0)
    g_coef = g - 1.0 + 2.0 * bt * b
    h0 = -c * (b - 1.0) ** 2 / b
    h1 = c * (b - 1.0) * (3.0 - 1.0 / b) - 2.0 * (b - 1.0) * (1.0 - bt * b) * a_coef
    h2 = -((3.0 * b - 2.0) * c + (b - 1.0) * a_coef * g_coef)
    h3 = b * c
    b2 = h2 / h3
    b1 = h1 / h3
    b0 = h0 / h3
    m = b1 - b2 * b2 / 3.0
    n = b0 - b1 * b2 / 3.0 + 2.0 * b2 ** 3 / 27.0
    return h0, h1, h2, h3, m, n


def table_configs():
    """The default table and the threshold_table inputs of seeds 0, 1 and 2."""
    workloads = _load_workloads()
    configs = [("default", RunConfig())]
    for seed in range(3):
        for k, inv in enumerate(workloads.generate("threshold_table", seed)):
            argv = inv.argv
            overrides = {key[2:]: json.loads(value) for key, value in zip(argv[1::2], argv[2::2])}
            configs.append((f"seed{seed}-{k}", parse_config(None, overrides)))
    return configs


def admissible_cells(cfg):
    g = cfg.gamma
    for bt in cfg.btilde_grid:
        upper = beta_upper(g, bt)
        for beta in cfg.beta_grid:
            if _within(beta, upper):
                yield beta, g, bt


def hexes(values):
    return [float.hex(v) for v in values]


def test_coeffs_matches_its_former_body_on_every_table_cell():
    cells = 0
    for name, cfg in table_configs():
        for beta, g, bt in admissible_cells(cfg):
            assert hexes(_coeffs(beta, g, bt)) == hexes(reference_coeffs(beta, g, bt)), (
                name, beta, g, bt)
            cells += 1
    assert cells > 100_000  # 72 seeded grids of about 2,000 cells, mostly admissible


def test_threshold_j_is_the_builtin_clamp_on_every_default_cell():
    for beta, g, bt in admissible_cells(RunConfig()):
        _h, x_star, j, _phi = _threshold(beta, g, bt)
        assert float.hex(j) == float.hex(max(0.0, (x_star - 1.0) / beta)), (beta, bt)


#: the listed inputs and their negations: NaN, +-0.0, the least subnormal,
#: 0.5, 1 -+ 1 ulp, 1.0, 3.7, 1e308 and infinity
_LISTED = [math.nan, 0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0,
           math.nextafter(1.0, 2.0), 3.7, 1e308, math.inf]
VALUES = _LISTED + [-v for v in _LISTED]


#: replaced call -> (the builtin form, the shipped form, the inputs that reach it)
CLAMPS = {
    # positive_root's residual scale: x is finite there, the table takes every float
    "positive_root max(abs(x), 1.0)": (
        lambda x: max(abs(x), 1.0),
        lambda x: 1.0 if abs(x) < 1.0 else abs(x),
        lambda x: True),
    # _threshold's J = (x_star - 1)/beta, any float
    "_threshold max(0.0, j)": (
        lambda j: max(0.0, j),
        lambda j: j if j > 0.0 else 0.0,
        lambda j: True),
    # after busemann_variable's check 0 <= sigma <= 1 + 1e-12
    "busemann_variable min(sigma, 1.0)": (
        lambda s: min(s, 1.0),
        lambda s: 1.0 if s > 1.0 else s,
        lambda s: 0.0 <= s <= 1.0 + 1e-12),
    # dropped: after that clamp 1 - sigma^2 is >= +0.0
    "busemann_variable max(0.0, 1 - sigma^2)": (
        lambda s: max(0.0, 1.0 - s * s),
        lambda s: 1.0 - s * s,
        lambda s: 0.0 <= s <= 1.0),
    # dropped: _row's ring branch has sigma < 1
    "_row max(0.0, 1 - sigma)": (
        lambda s: max(0.0, 1.0 - s),
        lambda s: 1.0 - s,
        lambda s: s < 1.0 and 1.0 - s < FRONT_RING),
}


@pytest.mark.parametrize("clamp", CLAMPS)
def test_comparison_returns_the_builtins_float(clamp):
    builtin, shipped, reaches = CLAMPS[clamp]
    inputs = [v for v in VALUES if reaches(v)]
    assert inputs
    table = [(float.hex(v), float.hex(builtin(v)), float.hex(shipped(v))) for v in inputs]
    assert [(v, b) for v, b, _s in table] == [(v, s) for v, _b, s in table]


def reference_busemann(sigma):
    sigma = min(sigma, 1.0)
    return sigma / (1.0 + math.sqrt(max(0.0, 1.0 - sigma * sigma)))


@pytest.mark.parametrize("sigma", [v for v in VALUES if 0.0 <= v <= 1.0 + 1e-12]
                         + [1.0 + 1e-12, 1e-300, 0.9999999])
def test_busemann_variable_matches_the_builtin_form(sigma):
    assert float.hex(busemann_variable(sigma)) == float.hex(reference_busemann(sigma))
