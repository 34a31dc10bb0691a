"""The grid renderer of the field command against a pointwise rebuild.

render_field evaluates what a row or a column of the grid shares once; the
rebuild below evaluates every cell through the public diffracted_density_xi
and formats it with the public fmt, so the two must agree byte for byte and
fail with the same exception.
"""

import functools
import hashlib
import math
import random

import pytest

from vdwshock import checks, linear_acoustics
from vdwshock.config import parse_config
from vdwshock.errors import DomainError, SingularityError
from vdwshock.geometry import (
    BOUNDARY_TOL,
    OMEGA_1,
    OMEGA_2,
    OMEGA_TILDE,
    _loci,
    _region,
    make_point,
)
from vdwshock.linear_acoustics import (
    TAG_NEAR_FRONT,
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


def grid_rows(cfg):
    ref = reference_constants(cfg.rho0, cfg.p0, GasModel(cfg.gamma, cfg.btilde))
    sigmas = _linspace(cfg.xi_min, 1.0, cfg.xi_count)
    thetas = _linspace(cfg.alpha, math.pi, cfg.theta_count)
    return ref, sigmas, thetas, list(density_rows(sigmas, thetas, cfg.alpha, ref))


def region_signature(sigma, thetas, alpha, ref):
    # the outcome of every comparison _region can make at the row's zeta: with
    # the angle tests fixed per column, rows with one signature share their regions
    zeta = make_point(sigma * ref.kappa0 * ref.c0, alpha, ref).zeta
    eps = BOUNDARY_TOL * ref.a0
    loci = {x for theta in thetas for x in _loci(theta, alpha, ref) if x is not None}
    bounds = sorted({b for x in loci | {ref.a0} for b in (x - eps, x + eps)})
    return tuple((zeta >= b, zeta <= b) for b in bounds)


@pytest.fixture
def region_calls(monkeypatch):
    # counts the region decisions density_rows makes, one per (row, angle) decided
    calls = []

    def spy(*args):
        calls.append(args)
        return _region(*args)

    monkeypatch.setattr(linear_acoustics, "_region", spy)
    return calls


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
        for sigma, (tag, regions, rhos) in zip(sigmas, rows):
            assert len(rhos) == len(thetas) == len(regions)
            # the reduced radius the row is evaluated at, after the point round trip
            row_sigma = make_point(sigma * ref.kappa0 * ref.c0, cfg.alpha, ref).xi / ref.kappa0
            for theta, region, rho1 in zip(thetas, regions, rhos):
                sample = diffracted_density_xi(sigma, theta, cfg.alpha, ref)
                assert (tag, region, rho1.hex()) == (
                    sample.formula_tag, sample.region.region, sample.rho1.hex()
                )
                if tag != TAG_NEAR_FRONT and row_sigma < 1.0:
                    # the gate's ideal-gas form, term for term in the kernel's order: equal to the bit
                    want = checks._ideal_gas_density(row_sigma, theta, cfg.alpha)
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
        for tag, _regions, rhos in grid_rows(cfg)[3]:
            if tag != TAG_NEAR_FRONT:
                assert all(rho1 >= 1.0 for rho1 in rhos), (cfg, tag)


def outcome(call, *args):
    try:
        return "value", call(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def rows_against_pointwise(sigmas, thetas, alpha, ref):
    # density_rows up to its first error against the pointwise calls in
    # row-major order: the same cells to the bit, then the same exception
    got = []
    kind, err = outcome(lambda: got.extend(density_rows(sigmas, thetas, alpha, ref)))
    want = []
    for sigma in sigmas:
        cells = [outcome(diffracted_density_xi, sigma, theta, alpha, ref) for theta in thetas]
        raised = [cell for cell in cells if cell[0] != "value"]
        if raised:
            assert (kind, err) == raised[0], sigma
            break
        want.append([(s.formula_tag, s.region.region, s.rho1.hex()) for _, s in cells])
    else:
        assert kind == "value", err
    assert [[(tag, region, rho1.hex()) for region, rho1 in zip(regions, rhos)]
            for tag, regions, rhos in got] == want
    return got


#: radii 1 - k*1e-13 straddling the arc's lower bound a0*(1 - 1e-12), arc row
#: first, and above the arc up to where _checked_sigma rejects the radius
BOUNDARY_SIGMAS = [1.0 - k * 1e-13 for k in range(41)] + [1.0 + k * 1e-13 for k in range(1, 13)]

BOUNDARY_OVERS = {
    "ideal": {"gamma": 1.4, "btilde": 0.0, "alpha_deg": 31.0},
    "covolume": {"gamma": 2.2, "btilde": 0.45, "rho0": 0.7, "p0": 1.6, "alpha_deg": 17.0},
    "wide_wedge": {"gamma": 1.6, "btilde": 0.2, "alpha_deg": 71.0},
}
BOUNDARY_CONFIGS = pytest.mark.parametrize("over", BOUNDARY_OVERS.values(), ids=BOUNDARY_OVERS)


def boundary_grid(over):
    cfg = parse_config(None, {**over, "theta_count": 37, "xi_count": 41,
                              "xi_min": 1.0 - 40e-13})
    ref = reference_constants(cfg.rho0, cfg.p0, GasModel(cfg.gamma, cfg.btilde))
    return cfg, ref, _linspace(cfg.alpha, math.pi, cfg.theta_count)


@BOUNDARY_CONFIGS
def test_row_shortcut_at_its_boundary(over, region_calls):
    # rows below every bound share one region decision, rows in the arc band
    # one per signature; either way every cell is the pointwise call, or
    # raises what it raises
    cfg, ref, thetas = boundary_grid(over)
    kinds = {"below": 0, "band": 0, "raised": 0}
    labels = set()
    passed = []
    for sigma in BOUNDARY_SIGMAS:
        kind, got = outcome(lambda: list(density_rows([sigma], thetas, cfg.alpha, ref)))
        want = [outcome(diffracted_density_xi, sigma, theta, cfg.alpha, ref) for theta in thetas]
        raised = [w for w in want if w[0] != "value"]
        if raised:
            assert (kind, got) == raised[0], sigma
            kinds["raised"] += 1
            continue
        assert kind == "value", (sigma, got)
        ((tag, regions, rhos),) = got
        signature = region_signature(sigma, thetas, cfg.alpha, ref)
        kinds["below" if not any(ge for ge, _le in signature) else "band"] += 1
        labels.update(regions)
        assert [(tag, region, rho1.hex()) for region, rho1 in zip(regions, rhos)] == [
            (s.formula_tag, s.region.region, s.rho1.hex()) for _, s in want], sigma
        passed.append(sigma)
    assert min(kinds.values()) >= 1, kinds
    assert labels > {OMEGA_TILDE}, labels  # the arc band rows are not all OmegaTilde
    region_calls.clear()
    rows = list(density_rows(passed, thetas, cfg.alpha, ref))
    signatures = [region_signature(sigma, thetas, cfg.alpha, ref) for sigma in passed]
    assert len(region_calls) == len(thetas) * len(set(signatures))
    shared = {signature: regions for signature, (_, regions, _) in zip(signatures, rows)}
    assert all(regions is shared[signature]
               for signature, (_, regions, _) in zip(signatures, rows))
    grid = outcome(lambda: render_field(cfg).split("\n")[:-1])
    assert grid == outcome(pointwise_lines, cfg), cfg


def stepped_sigmas(bound, ref, steps=8):
    # every float sigma whose zeta = sigma*kappa0*c0 runs from steps values below
    # bound to steps values above it, so a zeta equal to bound is among them
    # wherever a float sigma reaches it
    def zeta(sigma):
        return sigma * ref.kappa0 * ref.c0

    sigma = bound / ref.kappa0 / ref.c0
    while zeta(sigma) >= bound:
        sigma = math.nextafter(sigma, 0.0)
    for _ in range(steps):
        sigma = math.nextafter(sigma, 0.0)
    out, above = [], 0
    while above < steps:
        out.append(sigma)
        above += zeta(sigma) > bound
        sigma = math.nextafter(sigma, 2.0)
    return out, [zeta(sigma) for sigma in out]


@BOUNDARY_CONFIGS
def test_rows_stepped_across_the_arc_bounds(over, region_calls):
    # one float step of sigma at a time across a0 - eps and a0 + eps, the
    # bounds where the arc band begins and ends
    cfg, ref, thetas = boundary_grid(over)
    eps = BOUNDARY_TOL * ref.a0
    lower, upper = ref.a0 - eps, ref.a0 + eps
    sigmas, zetas = stepped_sigmas(lower, ref)
    assert zetas[0] < lower < zetas[-1]
    region_calls.clear()
    rows = rows_against_pointwise(sigmas, thetas, cfg.alpha, ref)
    assert len(rows) == len(sigmas)  # no region or radius error below the arc
    signatures = {region_signature(sigma, thetas, cfg.alpha, ref) for sigma in sigmas}
    assert len(signatures) >= 2
    assert len(region_calls) == len(thetas) * len(signatures)
    if cfg.btilde == 0.0:
        # kappa0 = 1 and sigma < 1: a step of sigma moves zeta by at most one ulp
        assert lower in zetas
    sigmas, zetas = stepped_sigmas(upper, ref)
    assert zetas[0] < upper < zetas[-1]
    rows_against_pointwise(sigmas, thetas, cfg.alpha, ref)


@pytest.mark.parametrize("name", ["ideal", "covolume"])
def test_rows_stepped_across_a_locus_in_the_arc_band(name, region_calls):
    # 1e-6 short of the merge ray the reflected line lies about 5e-13*a0 above
    # a0, so its bound zs - eps falls inside the arc band, where that column
    # turns from Omega2 to Omega1
    cfg, ref, thetas = boundary_grid(BOUNDARY_OVERS[name])
    theta = 2.0 * cfg.alpha - 1e-6
    thetas = sorted([*thetas, theta])
    column = thetas.index(theta)
    eps = BOUNDARY_TOL * ref.a0
    bound = _loci(theta, cfg.alpha, ref)[1] - eps
    assert ref.a0 - eps < bound < ref.a0
    sigmas, zetas = stepped_sigmas(bound, ref)
    assert zetas[0] < bound < zetas[-1]
    region_calls.clear()
    rows = rows_against_pointwise(sigmas, thetas, cfg.alpha, ref)
    assert len(rows) == len(sigmas)
    assert {regions[column] for _, regions, _ in rows} == {OMEGA_1, OMEGA_2}
    signatures = {region_signature(sigma, thetas, cfg.alpha, ref) for sigma in sigmas}
    assert len(region_calls) == len(thetas) * len(signatures)


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


@pytest.mark.parametrize("kind", ["plain", "wide_wedge"])
def test_scale_rows_decide_their_region_once(kind, region_calls):
    # the 99 rows below every bound share one signature and one region
    # decision, and the arc row has its own; the ring grid has its rows near the arc
    cfg = parse_config(None, scale_overrides(kind))
    ref, sigmas, thetas, rows = grid_rows(cfg)
    signatures = [region_signature(sigma, thetas, cfg.alpha, ref) for sigma in sigmas]
    assert signatures[:99] == [signatures[0]] * 99 != [signatures[99]] * 99
    assert len(region_calls) == 2 * len(thetas)
    assert [regions is rows[0][1] for _, regions, _ in rows] == [True] * 99 + [False]


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


def per_cell_loop(s, mu, cos_bs):
    # the interior row kernel as a per-cell loop, with atan_zero_pi's +pi
    # decided at every cell: the reference the row-level decision must match
    atan2, pi = math.atan2, math.pi
    sm = s**mu
    s2m = sm * sm
    num, den, two_sm = (1.0 - s2m) * math.cos(mu * pi), (1.0 + s2m) * math.sin(mu * pi), 2.0 * sm
    n1, n2 = num or 0.0, -num or 0.0
    out = []
    for cos_b in cos_bs:
        c = two_sm * cos_b
        t1 = atan2(n1, -den + c)
        if t1 < 0.0:
            t1 += pi
        t2 = atan2(n2, den + c)
        if t2 < 0.0:
            t2 += pi
        out.append(1.0 + (t1 + t2) / pi)
    return out


def hex_outcome(call, *args):
    try:
        return [x.hex() for x in call(*args)]
    except (ArithmeticError, ValueError) as exc:  # s**mu or cos(mu*pi) out of range
        return type(exc), str(exc)


#: radii and exponents at the edges of the float range, beside the field's
#: s in [0, 1] and mu in (1/2, 1)
EDGE_S = [0.0, 5e-324, 1e-300, 1e-10, 0.5, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, 1e10,
          1e150, 1e300, 1.7976931348623157e308]
EDGE_MU = [0.0, 1e-300, 0.5, 0.75, 1.0 - 2.0**-53, 1.0, 7.3, 1e5, 1e300, -0.5, -3.0, -1e300]


@pytest.mark.parametrize("seed", range(4))
def test_interior_cells_match_the_per_cell_loop(seed):
    rng = random.Random(300 + seed)
    cos_bs = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324] + [rng.uniform(-1.0, 1.0) for _ in range(40)]
    cases = [(s, mu) for s in EDGE_S for mu in EDGE_MU]
    cases += [(10.0 ** rng.uniform(-320.0, 308.0), rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(
        -300.0, 300.0)) for _ in range(300)]
    cases += [(rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.0)) for _ in range(300)]
    signs = set()
    for s, mu in cases:
        want = hex_outcome(per_cell_loop, s, mu, cos_bs)
        assert hex_outcome(linear_acoustics._interior_cells, s, mu, cos_bs) == want, (s, mu)
        if isinstance(want, list):
            sm = s**mu
            num = (1.0 - sm * sm) * math.cos(mu * math.pi)
            signs.add((num > 0.0) - (num < 0.0))
    assert signs >= {1, -1}  # rows where either arctangent takes the +pi


def tiny_c0_ref():
    # a0 ~ 2e-316: c0 is subnormal, which make_point rejects
    ref = reference_constants(1.7976931348623157e308, 5e-324, GasModel(1.4))
    assert 0.0 < ref.c0 < 2.2250738585072014e-308
    return ref


#: the grid ids of differential_grids, known before any grid is built
DIFFERENTIAL = ["alpha_deg=1e-300", "alpha_deg=89.99999999999999", "sigma=0",
                "merge ray in the ring", "non-normal c0"]


@functools.cache
def differential_grids():
    # {id: (sigmas, thetas, alpha, ref, what the first bad cell raises or None)}
    rng = random.Random(400)
    ideal = reference_constants(1.0, 1.0, GasModel(1.4))
    covolume = reference_constants(0.7, 1.6, GasModel(2.2, 0.45))
    ring = [1.0 - k * 1e-15 for k in (9, 5, 2, 1)]
    grids = {}
    for alpha_deg in (1e-300, 89.99999999999999):  # the merge ray is a grid angle: no ring rows
        alpha = math.radians(alpha_deg)
        sigmas = sorted(rng.uniform(0.0, 1.0) for _ in range(20)) + [1.0 - 1e-13, 1.0]
        grids[f"alpha_deg={alpha_deg!r}"] = (sigmas, _linspace(alpha, math.pi, 23), alpha,
                                             covolume, None)
    alpha = math.radians(33.0)
    thetas = _linspace(alpha, math.pi, 17)
    grids["sigma=0"] = ([0.0, 0.25, 1.0], thetas, alpha, ideal, None)
    merge = sorted([*thetas, 2.0 * alpha])  # a grid angle on the merge ray
    grids["merge ray in the ring"] = ([0.5, *ring, 1.0], merge, alpha, covolume, SingularityError)
    grids["non-normal c0"] = ([0.0, 0.5, 1.0], thetas, alpha, tiny_c0_ref(), DomainError)
    assert list(grids) == DIFFERENTIAL
    return grids


@pytest.mark.parametrize("grid", DIFFERENTIAL)
def test_rows_bit_identical_where_the_workload_never_goes(grid):
    sigmas, thetas, alpha, ref, raised = differential_grids()[grid]
    got = rows_against_pointwise(sigmas, thetas, alpha, ref)
    if raised is None:
        assert len(got) == len(sigmas)
    else:
        with pytest.raises(DomainError) as exc:
            list(density_rows(sigmas, thetas, alpha, ref))
        assert type(exc.value) is raised


def test_tiny_wedge_flips_the_arctangent_signs():
    # alpha = 1e-300 degrees: mu rounds to 1/2 and cos(mu*pi) = 6.1e-17 > 0,
    # so n1 > 0 > n2 and the +pi goes to the second arctangent, not the first
    alpha = math.radians(1e-300)
    assert linear_acoustics.corner_exponent(alpha) == 0.5 and math.cos(0.5 * math.pi) > 0.0
    cfg = parse_config(None, {"alpha_deg": 1e-300, "xi_min": 1e-3, "xi_count": 40,
                              "theta_count": 31})
    assert render_field(cfg).split("\n")[:-1] == pointwise_lines(cfg)


def test_non_normal_c0_raises_before_any_angle():
    # c0 is the first thing the pointwise call checks, so the grid checks it
    # before its angles: here the first angle lies outside the wedge domain too
    alpha = math.pi / 4.0
    with pytest.raises(DomainError, match="c0 must be a finite normal float") as exc:
        list(density_rows([0.5], [0.1, 1.0], alpha, tiny_c0_ref()))
    assert str(exc.value) == outcome(diffracted_density_xi, 0.5, 0.1, alpha, tiny_c0_ref())[1]


def test_grid_work_is_done_once_per_grid(monkeypatch):
    # the near-front coefficient once per column, not per ring cell, and the
    # point checks once per grid, not per row
    calls = {"near_front_coefficient": 0, "make_point": 0}
    for name in calls:
        def spy(*args, _real=getattr(linear_acoustics, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(linear_acoustics, name, spy)
    ref = reference_constants(0.7, 1.6, GasModel(2.2, 0.45))
    alpha = math.radians(27.0)
    thetas = _linspace(alpha, math.pi, 19)
    sigmas = [0.3, 0.9, *(1.0 - k * 1e-15 for k in (8, 4, 2, 1)), 1.0]
    rows = list(density_rows(sigmas, thetas, alpha, ref))
    assert [tag for tag, _, _ in rows].count(TAG_NEAR_FRONT) == 4
    assert calls["near_front_coefficient"] == len(thetas)
    assert calls["make_point"] <= 1
