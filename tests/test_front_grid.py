"""The covolume sweep of the front command against a pointwise rebuild.

render_front checks its inputs once, before the first row, and formats each
row in one % call; the rebuild below evaluates every row through the public
gradient_jump, shock_locus (at t = 1, so the locus is the locus per unit
time) and shock_strength, each of which checks its inputs and evaluates C
again, and formats it with the public fmt and csv_text, so the two must agree
byte for byte.  Both go through the same unchecked kernels of
nonlinear_front, the shock-side terms and the gradient jump, so those are
pinned separately, to the last bit, against the formulas written out in full.
render_front takes its config from parse_config, which checks it once; where
a front command fails, its first error is pinned: parse_config's, one fault
per check in its order, then render_front's ray check on a valid config.
"""

import json
import math
import random

import pytest

from vdwshock import cli
from vdwshock.config import parse_config
from vdwshock.errors import DomainError, SingularityError
from vdwshock.nonlinear_front import (
    _gradient_jump,
    _shock_terms,
    c_beta,
    gradient_jump,
    shock_locus,
    shock_strength,
)
from vdwshock.reports import _linspace, csv_text, render_front
from vdwshock.thermo import GasModel, reference_constants

HEADER = ["btilde", "gradient_jump", "shock_locus_coeff", "shock_strength"]


def sweep_btildes(cfg):
    """The sweep's btilde values; one that rounds up to 1 or above below a top < 1 is the top."""
    top = cfg.btilde_sweep_max
    return [top if top < 1.0 <= bt else bt
            for bt in _linspace(0.0, top, cfg.btilde_sweep_count)]


def pointwise_text(cfg):
    alpha, beta = cfg.alpha, cfg.beta_angle
    rows = []
    for bt in sweep_btildes(cfg):
        gas = GasModel(cfg.gamma, bt)
        ref = reference_constants(cfg.rho0, cfg.p0, gas)
        jump = gradient_jump(cfg.r, gas, cfg.rho0)
        locus = shock_locus(1.0, beta, alpha, cfg.epsilon, gas, ref)
        strength = shock_strength(beta, alpha, cfg.epsilon, gas)
        rows.append([bt, jump, locus, strength])
    return csv_text(HEADER, rows)


KINDS = ("plain", "near_sonic", "near_outer_edge", "dense_gas", "zero_strength", "scaled")


def random_overrides(rng, kind):
    alpha_deg = rng.uniform(2.0, 85.0)
    over = {
        "gamma": rng.uniform(1.05, 3.0),
        "alpha_deg": alpha_deg,
        "beta_deg": rng.uniform(alpha_deg + 0.5, 179.5 - alpha_deg),
        "epsilon": rng.uniform(0.01, 0.3),
        "btilde_sweep_max": rng.uniform(0.05, 0.9),
        "btilde_sweep_count": rng.randint(2, 30),
    }
    if kind == "near_sonic":  # C is large, the class still "shock"
        over["beta_deg"] = alpha_deg + 10.0 ** rng.uniform(-8.0, -3.0)
    elif kind == "near_outer_edge":
        over["beta_deg"] = 180.0 - alpha_deg - 10.0 ** rng.uniform(-8.0, -1.0)
    elif kind == "dense_gas":  # 1 - btilde down to 1e-12 in the last row
        over["btilde_sweep_max"] = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
    elif kind == "zero_strength":
        over["epsilon"] = 0.0
    elif kind == "scaled":
        for key in ("rho0", "p0", "r"):
            over[key] = 10.0 ** rng.uniform(-30.0, 30.0)
    return over


@pytest.mark.parametrize("seed", range(8))
def test_sweep_matches_pointwise_rebuild(seed):
    rng = random.Random(seed)
    for i in range(18):
        kind = KINDS[i % len(KINDS)]
        cfg = parse_config(None, random_overrides(rng, kind))
        want = pointwise_text(cfg)
        assert render_front(cfg) == want, (kind, cfg)
        assert want.count("\n") == cfg.btilde_sweep_count + 1
        if kind == "zero_strength":
            assert all(line.endswith(",0") for line in want.split("\n")[1:-1])


def test_default_sweep_matches_pointwise_rebuild():
    cfg = parse_config(None, {})
    assert render_front(cfg) == pointwise_text(cfg)


TOP = "0.9999999999999999"  # the largest float below 1


def test_sweep_that_rounds_up_to_one_ends_at_its_top(capsys):
    # _linspace(0, TOP, 4) ends at 1.0: this exited 2 with "btilde must be below 1, got 1.0"
    assert _linspace(0.0, float(TOP), 4)[-1] == 1.0
    assert cli.main(["front", "--btilde_sweep_max", TOP, "--btilde_sweep_count", "4"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == pointwise_text(parse_config(None, {"btilde_sweep_max": float(TOP),
                                                     "btilde_sweep_count": 4}))
    rows = out.split("\n")[1:-1]
    assert len(rows) == 4 and rows[-1].startswith("1,")


def test_sweeps_just_below_one_match_the_rebuild():
    rounded_up = 0
    for k in range(1, 5):
        top = 1.0 - k * 2.0 ** -53
        for count in range(2, 120):
            cfg = parse_config(None, {"btilde_sweep_max": top, "btilde_sweep_count": count})
            rounded_up += _linspace(0.0, top, count)[-1] >= 1.0
            assert render_front(cfg) == pointwise_text(cfg), (top, count)
    assert rounded_up > 10  # every one of these exited 2


@pytest.mark.parametrize("seed", range(3))
def test_kernel_bit_identical_to_printed_formulas(seed):
    # the three formulas as printed, written out in full: a change of one ulp
    # (say (g+1)*(g+1) for (g+1)**2) breaks equality here even where it does
    # not reach the 12 digits of the CSV
    rng = random.Random(2000 + seed)
    for _ in range(2000):
        g = 1.0 + 10.0 ** rng.uniform(-3.0, 3.0)
        bt = rng.uniform(0.0, 0.99)
        eps = rng.uniform(0.0, 0.5)
        c = rng.uniform(-5.0, 5.0)
        q = eps * eps * (g + 1.0) ** 2 * c * c / (4.0 * (1.0 - bt) ** 2)
        strength = eps * eps * c * c * (g + 1.0) / (2.0 * (1.0 - bt))
        assert _shock_terms(g, bt, eps, c) == (q, strength)
        r, rho0 = 10.0 ** rng.uniform(-30.0, 30.0), 10.0 ** rng.uniform(-30.0, 30.0)
        assert _gradient_jump(g, bt, r, rho0) == (1.0 - bt) * rho0 / ((g + 1.0) * r)


class TestKernelOverflow:
    alpha = math.pi / 4
    beta = math.radians(67.5)

    def test_locus_power_of_huge_gamma(self):
        # (gamma + 1)**2 raised a bare OverflowError out of shock_locus
        gas = GasModel(1e200, 0.0)
        ref = reference_constants(1.0, 1.0, gas)
        with pytest.raises(DomainError, match=r"gamma=1e\+200, btilde=0.0, epsilon=0.1$"):
            shock_locus(1.0, self.beta, self.alpha, 0.1, gas, ref)

    def test_strength_product_overflow(self):
        # this returned inf
        with pytest.raises(DomainError,
                           match=r"gamma=1e\+308, btilde=0.9999999999, epsilon=0.3$"):
            shock_strength(self.beta, self.alpha, 0.3, GasModel(1e308, 0.9999999999))

    def test_strength_shares_the_locus_range(self):
        # the strength alone fits a float here, the locus excess q does not
        with pytest.raises(DomainError, match=r"leave the float range at gamma=1e\+200"):
            shock_strength(self.beta, self.alpha, 0.3, GasModel(1e200, 0.0))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_strength_parameter(self, eps):
        with pytest.raises(DomainError, match=f"epsilon={eps}$"):
            shock_strength(self.beta, self.alpha, eps, GasModel(1.4, 0.0))

    def test_locus_validates_its_gas(self):
        # btilde = 1 used to divide by zero in the locus formula
        ref = reference_constants(1.0, 1.0, GasModel(1.4))
        with pytest.raises(DomainError, match="btilde must be below 1"):
            shock_locus(1.0, self.beta, self.alpha, 0.1, GasModel(1.4, 1.0), ref)

    def test_locus_product_overflow(self):
        # a0*t*(1 + q) leaves the float range with a finite q: this returned inf
        ref = reference_constants(1.0, 1.0, GasModel(1.4))
        with pytest.raises(DomainError, match=r"shock locus leaves the float range at "
                           rf"t=1.7e\+308, a0={ref.a0}, gamma=1.4, btilde=0.0, epsilon=0.1$"):
            shock_locus(1.7e308, self.beta, self.alpha, 0.1, GasModel(1.4), ref)

    def test_gradient_jump_overflow(self):
        # this returned inf
        with pytest.raises(DomainError, match=r"gradient jump leaves the float range at "
                           r"r=5e-324, gamma=1.4, btilde=0.5, rho0=1e\+300$"):
            gradient_jump(5e-324, GasModel(1.4, 0.5), 1e300)

    def test_kernel_names_its_inputs(self):
        with pytest.raises(DomainError, match=r"gamma=2.5, btilde=0.5, epsilon=1e\+200$"):
            _shock_terms(2.5, 0.5, 1e200, c_beta(self.beta, self.alpha))


def cli_error(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return code, json.loads(err)["error"]["message"]


SONIC = "front type is undefined on the sonic ray beta = alpha"
SONIC_RAY = {"beta_deg": 45.00000000001}
# radians(beta_deg) rounds up to pi - alpha although beta_deg < 180 - alpha_deg
EDGE = ["--alpha_deg", "75.65354478572928", "--beta_deg", "104.3464552142707"]
EDGE_RAY = {"alpha_deg": 75.65354478572928, "beta_deg": 104.3464552142707}
EDGE_MESSAGE = "ray angle must lie in [0, pi - alpha), got 1.821189206273829"
A0_OVERFLOW = ["--rho0", "5e-324", "--p0", "1.7976931348623157e308"]
A0_MESSAGE = ("reference constants a0, kappa0 leave the float range at gamma=1.4, btilde=0.0, "
              "rho0=5e-324, p0=1.7976931348623157e+308")
LATE_KAPPA0 = ["--gamma", "5000", "--btilde_sweep_max", "0.99999"]
LATE_KAPPA0_MESSAGE = ("reference constants a0, kappa0 leave the float range at gamma=5000.0, "
                       "btilde=0.28571142857142856, rho0=1.0, p0=1.0")

# _coerce checks each value in argv order, before validate_config
COERCE_FAULTS = [
    ("non_finite", {"p0": math.nan, "beta_deg": math.inf}, DomainError,
     "p0 must be finite, got nan"),
    ("argv_order", {"beta_deg": math.inf, "p0": math.nan}, DomainError,
     "beta_deg must be finite, got inf"),
    ("unknown_key", {"t": 1.0}, DomainError, "unknown configuration key 't'"),
]
# one fault per check of validate_config that a front key meets, in its order
SWEEP_FAULTS = [
    ("gas", {"gamma": 0.5}, DomainError, "gamma must exceed 1, got 0.5"),
    ("epsilon", {"epsilon": -1.0}, DomainError, "epsilon must be nonnegative, got -1.0"),
    ("reference", {"rho0": -1.0}, DomainError, "rho0 and p0 must be positive"),
    ("r", {"r": 0.0}, DomainError, "r must be positive"),
    ("sweep_max", {"btilde_sweep_max": 1.5}, DomainError,
     "btilde_sweep_max must lie in (0, 1), got 1.5"),
    ("count", {"btilde_sweep_count": 0}, DomainError, "btilde_sweep_count must be at least 2"),
]
# render_front's own checks, on valid configs
RAY_FAULTS = [
    ("not_shock_side", {"beta_deg": 30.0}, DomainError,
     "front command needs beta_deg > alpha_deg (shock side of the sonic ray)"),
    ("sonic_ray", SONIC_RAY, SingularityError, SONIC),
    ("c_range", EDGE_RAY, DomainError, EDGE_MESSAGE),
]


def _sweep_faults_from(i):
    merged = {}
    for _name, fields, _error, _message in SWEEP_FAULTS[i:]:
        merged.update(fields)
    return merged


# (check, fields, error, message): each check's fault plus the faults of every later check
BLOCK_ROWS = ([(name, {**fields, **_sweep_faults_from(0)}, error, message)
               for name, fields, error, message in COERCE_FAULTS]
              + [(name, _sweep_faults_from(i), error, message)
                 for i, (name, _fields, error, message) in enumerate(SWEEP_FAULTS)]
              + RAY_FAULTS)


class TestErrorPrecedence:
    def test_huge_gamma_exact_stderr(self, capsys):
        assert cli.main(["front", "--gamma", "1e200"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            '{"error": {"kind": "validation", "message": "front quantities overflow at '
            'btilde=0.0 for gamma=1e+200, epsilon=0.1 (r=1.0)"}}\n')

    @pytest.mark.parametrize("argv, message", [
        # classify_front's message, the one check of the ray
        (["--beta_deg", "45.00000000001"], SONIC),
        # kappa0 overflows in a later row
        (LATE_KAPPA0, LATE_KAPPA0_MESSAGE),
        (A0_OVERFLOW, A0_MESSAGE),
        # the ray is checked before any row's reference constants
        (A0_OVERFLOW + ["--beta_deg", "45.00000000001"], SONIC),
        (A0_OVERFLOW + EDGE, EDGE_MESSAGE),
        (LATE_KAPPA0 + ["--beta_deg", "45.00000000001"], SONIC),
        (EDGE, EDGE_MESSAGE),
        (EDGE + ["--gamma", "1e200"], EDGE_MESSAGE),
        (EDGE + LATE_KAPPA0, EDGE_MESSAGE),
        # the shock-side terms overflow in the last row only
        (["--gamma", "2.0280823421539695", "--epsilon", "1.3021680102891774e+147",
          "--btilde_sweep_max", "0.9999981979134793"],
         "front quantities overflow at btilde=0.9999981979134793 for gamma=2.0280823421539695, "
         "epsilon=1.3021680102891774e+147 (r=1.0)"),
    ])
    def test_first_error_wins(self, capsys, argv, message):
        code, got = cli_error(capsys, ["front", *argv])
        assert (code, got) == (2, message)

    # the front command's first error: parse_config's, else render_front's on the valid config
    @pytest.mark.parametrize("fields, error, message", [row[1:] for row in BLOCK_ROWS],
                             ids=[row[0] for row in BLOCK_ROWS])
    def test_block_order(self, fields, error, message):
        with pytest.raises(error) as info:
            render_front(parse_config(None, fields))
        assert (type(info.value), str(info.value)) == (error, message)

    # each invalid front field meets parse_config, the one check of a config, alone
    @pytest.mark.parametrize("fields, message", [
        ({"gamma": 1.0}, "gamma must exceed 1, got 1.0"),
        ({"gamma": math.inf}, "gamma must be finite, got inf"),
        ({"btilde_sweep_max": 1.5}, "btilde_sweep_max must lie in (0, 1), got 1.5"),
        ({"btilde_sweep_max": 1.0}, "btilde_sweep_max must lie in (0, 1), got 1.0"),
        ({"btilde_sweep_max": math.nan}, "btilde_sweep_max must be finite, got nan"),
        ({"btilde_sweep_max": math.inf}, "btilde_sweep_max must be finite, got inf"),
        ({"btilde_sweep_max": -0.5}, "btilde_sweep_max must lie in (0, 1), got -0.5"),
        ({"p0": math.inf}, "p0 must be finite, got inf"),
        ({"rho0": math.nan}, "rho0 must be finite, got nan"),
        ({"r": math.inf}, "r must be finite, got inf"),
        ({"r": math.nan}, "r must be finite, got nan"),
        ({"epsilon": math.nan}, "epsilon must be finite, got nan"),
        ({"btilde_sweep_count": 1}, "btilde_sweep_count must be at least 2"),
        ({"btilde_sweep_count": -3}, "btilde_sweep_count must be at least 2"),
    ])
    def test_hand_built_config(self, fields, message):
        with pytest.raises(DomainError) as info:
            parse_config(None, fields)
        assert (type(info.value), str(info.value)) == (DomainError, message)


def test_default_front_validates_its_gas_once(count_calls):
    counts = count_calls(["validate_gas", "reference_constants", "_a0_kappa0", "check_reference",
                          "classify_front", "c_beta"])
    assert cli.main(["front"]) == 0
    # the gas once, in parse_config; the 15 rows call only the kernels
    assert counts == {"validate_gas": 1, "reference_constants": 0, "_a0_kappa0": 15,
                      "check_reference": 0, "classify_front": 1, "c_beta": 1}
