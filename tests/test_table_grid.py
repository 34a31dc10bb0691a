"""The grid renderer of the table command against a pointwise rebuild.

render_table takes its config from parse_config, which validates the gas of
every btilde column once; it works out each column's admissible band and
fixture column once, and runs only the threshold kernels per cell.  The
rebuild below evaluates every cell through the public criterion,
fixture_value and fmt, so the two must agree byte for byte and fail with the
same exception.
"""

import json
import math
import random

import pytest

from vdwshock import cli, regular_reflection
from vdwshock.config import RunConfig, parse_config
from vdwshock.errors import InternalInconsistencyError
from vdwshock.regular_reflection import ROOT_AGREEMENT, criterion
from vdwshock.reports import fmt, render_table
from vdwshock.shock_relations import ENDPOINT_SLACK
from vdwshock.table_fixture import FIXTURE_BETA, FIXTURE_BTILDE, fixture_value
from vdwshock.thermo import GasModel

HEADER = "beta_i,btilde,admissible,J,phi_star_deg,fixture_J,abs_diff"


def pointwise_lines(cfg):
    lines = [HEADER]
    for beta in cfg.beta_grid:
        for bt in cfg.btilde_grid:
            rep = criterion(beta, GasModel(cfg.gamma, bt))
            fix = fixture_value(beta, bt)
            j = rep.J if rep.admissible else None
            diff = abs(j - fix) if j is not None and fix is not None else None
            phi_deg = math.degrees(rep.phi_star) if rep.admissible else None
            cells = [beta, bt, rep.admissible, j, phi_deg, fix, diff]
            lines.append(",".join(fmt(cell) for cell in cells))
    return lines


def band_edges(gamma, btildes):
    # the band ends of every column, exactly and one ulp outside
    low = 1.0 - ENDPOINT_SLACK
    edges = [low, math.nextafter(low, -math.inf)]
    for bt in btildes:
        top = (gamma + 1.0) / (gamma - 1.0 + 2.0 * bt) * (1.0 + ENDPOINT_SLACK)
        edges += [top, math.nextafter(top, math.inf)]
    return edges


def random_grids(rng):
    gamma = rng.uniform(1.05, 3.0)
    btildes = [rng.uniform(0.0, 0.9) for _ in range(rng.randint(1, 4))]
    btildes += rng.sample(FIXTURE_BTILDE, 3)  # fixture columns present
    btildes.append(rng.choice(FIXTURE_BTILDE[1:]) + rng.choice([5e-10, -5e-10]))  # still matched
    btildes.append(min(0.99, rng.choice(FIXTURE_BTILDE) + 2e-9))  # no longer matched
    btildes.append(btildes[0])  # duplicate column
    upper = (gamma + 1.0) / (gamma - 1.0)
    betas = [rng.uniform(0.8, 1.2 * upper) for _ in range(rng.randint(2, 6))]
    betas += rng.sample(FIXTURE_BETA, 3)  # fixture rows present
    betas.append(rng.choice(FIXTURE_BETA) + 3e-7)  # rounds onto a fixture row
    betas.append(rng.choice(FIXTURE_BETA) + 0.1)  # between fixture rows
    betas += band_edges(gamma, btildes)
    betas += [1, 2, betas[0]]  # integer and duplicate rows
    rng.shuffle(betas)
    return {"gamma": gamma, "beta_grid": betas, "btilde_grid": btildes}


@pytest.mark.parametrize("seed", range(16))
def test_table_matches_pointwise_rebuild(seed):
    cfg = parse_config(None, random_grids(random.Random(seed)))
    got = render_table(cfg).split("\n")
    assert got[-1] == ""
    want = pointwise_lines(cfg)
    assert got[:-1] == want
    admissible = [line.split(",")[2] == "true" for line in want[1:]]
    assert any(admissible) and not all(admissible)
    assert any(line.split(",")[5] for line in want[1:])  # some fixture cell shown


def test_integer_entries_outside_parse_config():
    # a RunConfig built by hand keeps int entries; fmt prints them as the
    # floats parse_config would have made of them
    cfg = RunConfig(gamma=1.4, beta_grid=[1, 2, 2, 6, 3], btilde_grid=[0, 0, 0.3])
    assert render_table(cfg).split("\n")[:-1] == pointwise_lines(cfg)
    assert render_table(cfg) == render_table(
        RunConfig(gamma=1.4, beta_grid=[1.0, 2.0, 2.0, 6.0, 3.0], btilde_grid=[0.0, 0.0, 0.3])
    )


def test_band_edges_reach_both_sides():
    # the exact band ends are admissible, one ulp outside them is not
    gamma, bt = 1.7, 0.25
    cfg = parse_config(None, {
        "gamma": gamma, "btilde_grid": [bt], "beta_grid": band_edges(gamma, [bt]),
    })
    flags = [line.split(",")[2] for line in render_table(cfg).split("\n")[1:-1]]
    assert flags == ["true", "false", "true", "false"]


def test_bisection_fallback_keeps_the_bytes(monkeypatch):
    # the admissible cells with beta_i <= 1 (the band's low end) have h1 > 0,
    # so Descartes' rule certifies nothing and they take the sign-change root;
    # the grid prints the pointwise bytes, and every admissible cell's
    # sign-change root lies within the certificate's width of its root
    cfgs = [parse_config(None, random_grids(random.Random(100 + s))) for s in range(4)]
    calls = []

    def spy(cubic):
        calls.append(cubic)
        return bisection(cubic)

    bisection = regular_reflection._bisection_root
    monkeypatch.setattr(regular_reflection, "_bisection_root", spy)
    texts = [render_table(cfg) for cfg in cfgs]
    # pinned: a certificate that refuses sound cells, or passes unsound ones, moves it
    assert sum(text.count(",true,") for text in texts) == 575
    assert len(calls) == 37
    for cfg, text in zip(cfgs, texts):
        assert text.split("\n")[:-1] == pointwise_lines(cfg)
        for beta in cfg.beta_grid:
            for bt in cfg.btilde_grid:
                rep = criterion(beta, GasModel(cfg.gamma, bt))
                if rep.admissible:
                    x = rep.x_star
                    tol = max(ROOT_AGREEMENT, 16.0 * math.ulp(x))
                    assert abs(bisection(rep.cubic) - x) <= tol


def test_poisoned_kernel_raises_like_pointwise(monkeypatch, capsys):
    # a sign-change root that raises must fail the cell that falls back (beta_i
    # just below 1 has h1 > 0, so the certificate refuses it) in the grid exactly
    # as it does in criterion() and on the command line
    def poisoned(cubic):
        raise InternalInconsistencyError(f"poisoned sign-change root of {cubic}")

    monkeypatch.setattr(regular_reflection, "_bisection_root", poisoned)
    grid = {"gamma": 1.4, "beta_grid": [1.5, 1.0 - 1e-13], "btilde_grid": [0.0, 0.3]}
    cfg = parse_config(None, grid)
    with pytest.raises(InternalInconsistencyError) as grid_exc:
        render_table(cfg)
    with pytest.raises(InternalInconsistencyError) as point_exc:
        pointwise_lines(cfg)
    assert "poisoned sign-change root" in str(grid_exc.value)
    assert str(grid_exc.value) == str(point_exc.value)
    argv = ["table"]
    for key, value in grid.items():
        argv += [f"--{key}", json.dumps(value)]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["message"] == str(grid_exc.value)
