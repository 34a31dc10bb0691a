"""The grid renderer of the field command against a pointwise rebuild.

render_field evaluates what a row or a column of the grid shares once; the
rebuild below evaluates every cell through the public diffracted_density_xi
and formats it with the public fmt, so the two must agree byte for byte and
fail with the same exception.
"""

import math
import random

import pytest

from vdwshock.config import parse_config
from vdwshock.errors import SingularityError
from vdwshock.linear_acoustics import TAG_NEAR_FRONT, density_rows, diffracted_density_xi
from vdwshock.reports import _linspace, fmt, render_field
from vdwshock.thermo import GasModel, reference_constants

HEADER = "xi_over_kappa0,theta,region,rho1,formula_tag"


def pointwise_lines(cfg):
    ref = reference_constants(cfg.rho0, cfg.p0, GasModel(cfg.gamma, cfg.btilde))
    alpha = cfg.alpha
    lines = [HEADER]
    for sigma in _linspace(cfg.xi_min, 1.0, cfg.xi_count):
        for theta in _linspace(alpha, math.pi, cfg.theta_count):
            sample = diffracted_density_xi(sigma, theta, alpha, ref)
            cells = [sigma, math.degrees(theta), sample.region.region, sample.rho1,
                     sample.formula_tag]
            lines.append(",".join(fmt(cell) for cell in cells))
    return lines


def merge_on_grid_alpha_deg(k, theta_count):
    # grid angle k is alpha + k*(pi - alpha)/(theta_count - 1) = 2*alpha
    return math.degrees(k * math.pi / (theta_count - 1 + k))


def off_merge_alpha_deg(rng, theta_count, lo, hi):
    # keep every grid angle off the merge ray, where the ring is singular
    while True:
        alpha = math.radians(rng.uniform(lo, hi))
        k = alpha * (theta_count - 1) / (math.pi - alpha)
        if abs(k - round(k)) > 1e-3:
            return math.degrees(alpha)


def random_overrides(rng, kind):
    over = {
        "gamma": rng.uniform(1.05, 3.0),
        "btilde": rng.uniform(0.0, 0.9),
        "rho0": rng.uniform(0.5, 2.0),
        "p0": rng.uniform(0.5, 2.0),
        "xi_count": rng.randint(2, 30),
        "theta_count": rng.randint(2, 30),
    }
    lo, hi = (45.5, 89.5) if kind == "wide_wedge" else (1.0, 89.0)  # alpha > pi/4
    over["alpha_deg"] = off_merge_alpha_deg(rng, over["theta_count"], lo, hi)
    if kind == "ring":  # the last rows fall in the near-front cancellation ring
        over["xi_min"] = 1.0 - 10.0 ** rng.uniform(-15.0, -12.5)
    elif kind == "two_rows":
        over["xi_count"] = 2
        over["xi_min"] = rng.choice([1e-9, 0.5, 1.0 - 1e-13, 1.0 - 1e-15])
    else:
        over["xi_min"] = 10.0 ** rng.uniform(-7.0, -1e-4)
    return over


KINDS = ("ring", "wide_wedge", "two_rows", "plain")


@pytest.mark.parametrize("seed", range(8))
def test_grid_matches_pointwise_rebuild(seed):
    rng = random.Random(seed)
    seen_ring = seen_arc_row = False
    for i in range(12):
        kind = KINDS[i % len(KINDS)]
        cfg = parse_config(None, random_overrides(rng, kind))
        got = render_field(cfg).split("\n")
        assert got[-1] == ""
        want = pointwise_lines(cfg)
        assert got[:-1] == want, (kind, cfg)
        seen_ring |= any(line.endswith(f",{TAG_NEAR_FRONT}") for line in want)
        seen_arc_row |= want[-1].startswith("1,")
    assert seen_ring and seen_arc_row


@pytest.mark.parametrize("seed", range(4))
def test_density_rows_bit_identical_to_pointwise(seed):
    # the CSV keeps 12 digits; the kernels must agree to the last bit
    rng = random.Random(100 + seed)
    for kind in KINDS:
        cfg = parse_config(None, random_overrides(rng, kind))
        ref = reference_constants(cfg.rho0, cfg.p0, GasModel(cfg.gamma, cfg.btilde))
        sigmas = _linspace(cfg.xi_min, 1.0, cfg.xi_count)
        thetas = _linspace(cfg.alpha, math.pi, cfg.theta_count)
        rows = list(density_rows(sigmas, thetas, cfg.alpha, ref))
        assert len(rows) == len(sigmas)
        for sigma, (tag, cells) in zip(sigmas, rows):
            assert len(cells) == len(thetas)
            for theta, (region, rho1) in zip(thetas, cells):
                sample = diffracted_density_xi(sigma, theta, cfg.alpha, ref)
                assert (tag, region, rho1) == (
                    sample.formula_tag, sample.region.region, sample.rho1
                )


@pytest.mark.parametrize("xi_min", [1.0 - 1e-15, 1.0 - 1e-13])
@pytest.mark.parametrize("k, theta_count", [(1, 5), (3, 12), (7, 9)])
def test_merge_ray_in_ring_raises_like_pointwise(xi_min, k, theta_count):
    cfg = parse_config(None, {
        "alpha_deg": merge_on_grid_alpha_deg(k, theta_count),
        "theta_count": theta_count,
        "xi_count": 17,
        "xi_min": xi_min,
        "btilde": 0.2,
    })
    with pytest.raises(SingularityError) as grid_exc:
        render_field(cfg)
    with pytest.raises(SingularityError) as point_exc:
        pointwise_lines(cfg)
    assert str(grid_exc.value) == str(point_exc.value)
