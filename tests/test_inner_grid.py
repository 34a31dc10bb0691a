"""The grid renderer of the inner command against a pointwise rebuild.

render_inner evaluates what a row, a column or the whole grid shares once;
the rebuild below evaluates every cell through the public
reflected_shock_locus, shock_loci and inner_weak_solution and formats it
with the public fmt and csv_text, so the two must agree byte for byte.
Both go through the same unchecked kernels of inner_singular, so those
kernels are pinned separately, to the last bit, against the closed forms
written out in full.
"""

import math
import random

import pytest

from vdwshock.config import parse_config
from vdwshock.errors import DomainError
from vdwshock.inner_singular import (
    InnerGeometry,
    InnerPoint,
    expansion_fan,
    inner_geometry,
    inner_weak_solution,
    reflected_shock_locus,
    shock_loci,
)
from vdwshock.reports import _linspace, csv_text, render_inner
from vdwshock.thermo import GasModel, reference_constants

HEADER = [
    "theta_prime", "r_prime", "S_R", "S_D", "sonic_S", "sonic_R",
    "U_reflected", "U_diffracted",
]


def pointwise_text(cfg):
    gas = GasModel(gamma=cfg.gamma, btilde=cfg.btilde)
    geom = inner_geometry(gas, reference_constants(cfg.rho0, cfg.p0, gas), theta0=cfg.theta0)
    rows = []
    for tp in _linspace(cfg.thetaprime_min, cfg.thetaprime_max, cfg.thetaprime_count):
        s_r = reflected_shock_locus(tp, geom)
        s_d = shock_loci(tp, cfg.eta, geom)[1] if cfg.eta < 0.0 else None
        for rp in _linspace(cfg.rprime_min, cfg.rprime_max, cfg.rprime_count):
            eta = 2.0 * rp / (geom.kappa0 * tp * tp) if tp != 0.0 else None
            ip = InnerPoint(r_prime=rp, theta_prime=tp, eta=eta)
            u_ref = inner_weak_solution(ip, geom, "reflected")
            u_dif = None
            if eta is not None and eta < 0.0:
                u_dif = inner_weak_solution(ip, geom, "diffracted")
            rows.append([tp, rp, s_r, s_d, geom.sonic_S, geom.sonic_R, u_ref, u_dif])
    return csv_text(HEADER, rows)


def _span(rng, sign):
    """Two r' ends of the given sign: 'neg', 'pos' or 'straddle' (lo < 0 < hi)."""
    a, b = rng.uniform(0.01, 8.0), rng.uniform(0.01, 8.0)
    if sign == "neg":
        return -a, -b
    if sign == "pos":
        return a, b
    return -a, b


KINDS = ("zero_row", "eta_nonnegative", "negative_r", "straddle", "count_two", "descending")


def random_overrides(rng, kind):
    over = {
        "gamma": rng.uniform(1.05, 3.0),
        "btilde": rng.uniform(0.0, 0.9),
        "rho0": rng.uniform(0.5, 2.0),
        "p0": rng.uniform(0.5, 2.0),
        "theta0": rng.uniform(-2.0, 2.0),
        "eta": -(10.0 ** rng.uniform(-3.0, 2.0)),
        "rprime_count": rng.randint(2, 24),
        "thetaprime_count": rng.randint(2, 16),
    }
    over["rprime_min"], over["rprime_max"] = _span(rng, rng.choice(("neg", "pos", "straddle")))
    over["thetaprime_min"], over["thetaprime_max"] = sorted(
        (rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)))
    if kind == "zero_row":
        # step h is a power of 2 and theta' = 0 is grid point k, exactly
        h, k, m = 2.0 ** rng.randint(-3, 1), rng.randint(1, 6), rng.randint(1, 6)
        over.update(thetaprime_min=-k * h, thetaprime_max=m * h, thetaprime_count=k + m + 1)
    elif kind == "eta_nonnegative":
        over["eta"] = rng.choice([0.0, rng.uniform(0.0, 5.0)])
    elif kind == "negative_r":
        over["rprime_min"], over["rprime_max"] = _span(rng, "neg")
    elif kind == "straddle":
        over["rprime_min"], over["rprime_max"] = _span(rng, "straddle")
    elif kind == "count_two":
        key = rng.choice(("rprime_count", "thetaprime_count"))
        over[key] = 2
    elif kind == "descending":
        over["rprime_min"], over["rprime_max"] = _span(rng, "straddle")[::-1]
        over["thetaprime_min"], over["thetaprime_max"] = (
            over["thetaprime_max"], over["thetaprime_min"])
    return over


@pytest.mark.parametrize("seed", range(10))
def test_grid_matches_pointwise_rebuild(seed):
    rng = random.Random(seed)
    for i in range(12):
        kind = KINDS[i % len(KINDS)]
        cfg = parse_config(None, random_overrides(rng, kind))
        want = pointwise_text(cfg)
        assert render_inner(cfg) == want, (kind, cfg)
        lines = want.split("\n")[1:-1]
        assert len(lines) == cfg.rprime_count * cfg.thetaprime_count
        if kind == "zero_row":
            zero = [line for line in lines if line.startswith("0,")]
            assert len(zero) == cfg.rprime_count
            assert all(line.endswith(",") for line in zero)  # no eta at theta' = 0
        if kind == "eta_nonnegative":
            assert all(line.split(",")[3] == "" for line in lines)
        if kind == "negative_r":
            assert all(line.split(",")[7] != "" for line in lines if not line.startswith("0,"))


def test_default_grid_matches_pointwise_rebuild():
    cfg = parse_config(None, {})
    assert render_inner(cfg) == pointwise_text(cfg)


def random_geometry(rng):
    kappa0 = 1.0 / (1.0 - rng.uniform(0.0, 0.9)) ** rng.uniform(1.0, 2.5)
    vartheta = 0.5 * kappa0 * rng.uniform(2.05, 4.0) / rng.uniform(0.1, 1.0)
    return InnerGeometry(vartheta=vartheta, theta0=rng.uniform(-2.0, 2.0),
                         sonic_S=vartheta, sonic_R=2.0 * vartheta, kappa0=kappa0)


@pytest.mark.parametrize("seed", range(4))
def test_kernels_bit_identical_to_closed_forms(seed):
    # the closed forms as printed, each written out in full; a change of one
    # ulp in a shared kernel breaks equality here even where it does not
    # reach the 12 digits of the CSV
    rng = random.Random(1000 + seed)
    for _ in range(500):
        geom = random_geometry(rng)
        tp, rp = rng.uniform(-4.0, 4.0), rng.uniform(-8.0, 8.0)
        eta = -(10.0 ** rng.uniform(-6.0, 3.0))
        d = tp - geom.theta0
        lift = math.atan(math.sqrt(-eta)) / math.pi
        s_r = 0.5 * geom.kappa0 * d * d + 1.5 * geom.vartheta
        s_d = 0.5 * geom.kappa0 * d * d + 0.5 * geom.vartheta * (2.0 + lift)
        assert reflected_shock_locus(tp, geom) == s_r
        assert shock_loci(tp, eta, geom) == (s_r, s_d)
        ip = InnerPoint(r_prime=rp, theta_prime=tp, eta=eta)
        assert inner_weak_solution(ip, geom, "reflected") == (1.0 if rp > s_r else 2.0)
        assert inner_weak_solution(ip, geom, "diffracted") == (1.0 if rp > s_d else 1.0 + lift)
        # the diffracted state's own lift sits behind its locus for rp < 0
        ip_in = InnerPoint(r_prime=-abs(rp), theta_prime=tp, eta=eta)
        assert inner_weak_solution(ip_in, geom, "diffracted") == 1.0 + lift
        x = -(10.0 ** rng.uniform(-6.0, 3.0))  # the fan's inner branch
        eta_x = 2.0 * x / geom.kappa0
        assert expansion_fan(x, tp, geom) == 1.0 + math.atan(math.sqrt(-eta_x)) / math.pi


def test_kernel_messages_unchanged():
    geom = random_geometry(random.Random(7))
    for call in (lambda: shock_loci(0.5, 0.0, geom),
                 lambda: inner_weak_solution(InnerPoint(1.0, 0.5, 0.25), geom, "diffracted")):
        with pytest.raises(DomainError, match=r"diffracted locus needs eta < 0"):
            call()
