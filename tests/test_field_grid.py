"""The grid renderer of the field command against a pointwise rebuild.

render_field evaluates what a row or a column of the grid shares once; the
rebuild below evaluates every cell through the public diffracted_density_xi
and formats it with the public fmt, so the two must agree byte for byte and
fail with the same exception.
"""

import hashlib
import math
import random

import pytest

from vdwshock.config import parse_config
from vdwshock.errors import SingularityError
from vdwshock.geometry import make_point
from vdwshock.linear_acoustics import (
    TAG_NEAR_FRONT,
    atan_zero_pi,
    density_rows,
    diffracted_density_xi,
)
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


def reference_interior_rho1(sigma, theta, alpha):
    # the interior formula restated on the public atan_zero_pi, term for term
    # in the library's order, so it must match the row kernel to the last bit
    mu = 0.5 * math.pi / (math.pi - alpha)
    s = sigma / (1.0 + math.sqrt(max(0.0, 1.0 - sigma * sigma)))
    sm = s**mu
    num = (1.0 - sm * sm) * math.cos(mu * math.pi)
    den = (1.0 + sm * sm) * math.sin(mu * math.pi)
    c = 2.0 * sm * math.cos(mu * (theta - alpha))
    return 1.0 + (atan_zero_pi(num, -den + c) + atan_zero_pi(-num, den + c)) / math.pi


def grid_rows(cfg):
    ref = reference_constants(cfg.rho0, cfg.p0, GasModel(cfg.gamma, cfg.btilde))
    sigmas = _linspace(cfg.xi_min, 1.0, cfg.xi_count)
    thetas = _linspace(cfg.alpha, math.pi, cfg.theta_count)
    return ref, sigmas, thetas, list(density_rows(sigmas, thetas, cfg.alpha, ref))


@pytest.mark.parametrize("seed", range(4))
def test_density_rows_bit_identical_to_pointwise(seed):
    # the CSV keeps 12 digits; the kernels must agree to the last bit, sign
    # of zero included
    rng = random.Random(100 + seed)
    interior_cells = 0
    for kind in KINDS:
        cfg = parse_config(None, random_overrides(rng, kind))
        ref, sigmas, thetas, rows = grid_rows(cfg)
        assert len(rows) == len(sigmas)
        for sigma, (tag, cells) in zip(sigmas, rows):
            assert len(cells) == len(thetas)
            # the reduced radius the row is evaluated at, after the point round trip
            row_sigma = make_point(sigma * ref.kappa0 * ref.c0, cfg.alpha, ref).xi / ref.kappa0
            for theta, (region, rho1) in zip(thetas, cells):
                sample = diffracted_density_xi(sigma, theta, cfg.alpha, ref)
                assert (tag, region, rho1.hex()) == (
                    sample.formula_tag, sample.region.region, sample.rho1.hex()
                )
                if tag != TAG_NEAR_FRONT and row_sigma < 1.0:
                    want = reference_interior_rho1(row_sigma, theta, cfg.alpha)
                    assert rho1.hex() == want.hex(), (cfg, sigma, theta)
                    interior_cells += 1
    assert interior_cells


@pytest.mark.parametrize("seed", range(4))
def test_non_ring_rows_never_below_one(seed):
    # render_field formats these rows without the "-0" guard: an interior
    # value is 1 + (t1 + t2)/pi with t1, t2 in [0, pi], an arc value 1 or 2
    rng = random.Random(200 + seed)
    for kind in KINDS:
        cfg = parse_config(None, random_overrides(rng, kind))
        for tag, cells in grid_rows(cfg)[3]:
            if tag != TAG_NEAR_FRONT:
                assert all(rho1 >= 1.0 for _, rho1 in cells), (cfg, tag)


#: sha256 of render_field on about 10^4 cells per kind, recorded before the
#: interior rows got their row kernel; the default-size digest lives in
#: test_golden.py
SCALE_DIGESTS = {
    "plain": "4f661e3af81dc0a73102333fa457815b43fe7a47a154d5eb0682c5e6c69eaaac",
    "wide_wedge": "4f925e3f9dd364f2fa726bafb7d0c0f646691fdcdb690758b68455ad5f59dd07",
    "ring": "46c8fad91e0107e5bb2d8874ac10268c5eb037ca8fce3c44e46d615ee630d55a",
}
#: (xi_count, theta_count); the ring grid's last rows fall in the near-front ring
SCALE_SHAPES = {"plain": (100, 100), "wide_wedge": (100, 100), "ring": (250, 40)}


def scale_overrides(kind):
    rng = random.Random(13)
    xi_count, theta_count = SCALE_SHAPES[kind]
    lo, hi = (45.5, 89.5) if kind == "wide_wedge" else (1.0, 89.0)
    return {
        "gamma": rng.uniform(1.05, 3.0),
        "btilde": rng.uniform(0.0, 0.9),
        "rho0": rng.uniform(0.5, 2.0),
        "p0": rng.uniform(0.5, 2.0),
        "xi_count": xi_count,
        "theta_count": theta_count,
        "alpha_deg": off_merge_alpha_deg(rng, theta_count, lo, hi),
        "xi_min": 1.0 - 1e-12 if kind == "ring" else 10.0 ** rng.uniform(-7.0, -1e-4),
    }


@pytest.mark.parametrize("kind", sorted(SCALE_DIGESTS))
def test_scale_output_digest(kind):
    out = render_field(parse_config(None, scale_overrides(kind)))
    assert out.count("\n") == 1 + SCALE_SHAPES[kind][0] * SCALE_SHAPES[kind][1]
    ring_cells = out.count(f",{TAG_NEAR_FRONT}\n")
    assert ring_cells >= (2 if kind == "ring" else 1) * SCALE_SHAPES[kind][1]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SCALE_DIGESTS[kind]


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


@pytest.mark.parametrize("sigmas, thetas", [([], [1.0, 2.0]), ([0.5, 0.9], [])])
def test_empty_grid_yields_nothing(sigmas, thetas):
    ref = reference_constants(1.0, 1.0, GasModel(1.4))
    assert list(density_rows(sigmas, thetas, math.pi / 4.0, ref)) == []
