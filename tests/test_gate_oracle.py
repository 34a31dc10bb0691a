"""The gate's scan oracle starts near the least root and stops at it.

``full_scan_oracle`` below is the oracle as it was before the early exit and
the guided start: it scans the same 1,500-point grid from -bound, bisects
every sign-change bracket and returns the least accepted root.  The shipped
oracle must return the same float, or raise the same exception, on seeded
inputs that reach every way out of the scan: admissible and out-of-band
ratios, angles around grazing and below it, and t < 0.  Planted poles and
DomainError windows show which grid points each scan visits.  The gate must
make few reflected-ratio calls, fail a shifted closed form, and report a
grazing input whose scan finds no root.
"""

import json
import math
import random

from vdwshock import checks, cli
from vdwshock.errors import DomainError, InternalInconsistencyError
from vdwshock.regular_reflection import criterion
from vdwshock.shock_relations import beta_upper, check_incident_beta
from vdwshock.thermo import GasModel


def full_scan_oracle(beta, t, gas, n=1500):
    """Reference: every bracket of the scan bisected, then min(roots)."""
    check_incident_beta(beta, gas)
    g, bt = gas.gamma, gas.btilde
    tan_di = (beta - 1.0) * t / (1.0 + beta * t * t)
    beta_r = checks._beta_r_of(beta, t, g, bt)

    def gfun(r):
        br = beta_r(r)
        return tan_di + (br - 1.0) * r / (1.0 + br * r * r)

    x = 1.0 + beta * t * t
    a_coef = (g + 1.0 - 2.0 * bt) * beta - (g - 1.0)
    qa = x * a_coef
    qb = 2.0 * t * (1.0 - bt * beta) * (1.0 + beta * beta * t * t)
    qc = (beta - 1.0) * ((g - 1.0 + 2.0 * bt * beta) * beta * t * t + (g + 1.0))
    bound = 1.0 + (abs(qb) + abs(qc)) / qa
    roots = []
    prev_r = -bound
    try:
        prev_g = gfun(prev_r)
    except DomainError:
        prev_g = math.nan
    for i in range(1, n + 1):
        r = -bound + bound * i / n
        try:
            cur_g = gfun(r)
        except DomainError:
            prev_r, prev_g = r, math.nan
            continue
        if math.isfinite(prev_g) and prev_g * cur_g <= 0.0 and prev_g != cur_g:
            lo, hi = prev_r, r
            glo = prev_g
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                gm = gfun(mid)
                if glo * gm <= 0.0:
                    hi = mid
                else:
                    lo, glo = mid, gm
            root = 0.5 * (lo + hi)
            if abs(gfun(root)) < 1e-8:
                roots.append(root)
        prev_r, prev_g = r, cur_g
    if not roots:
        raise InternalInconsistencyError("scan oracle found no root")
    return min(roots)


def wedge_disc(beta, t, gas):
    """Discriminant of the wedge quadratic, as the shipped oracle forms it."""
    g, bt = gas.gamma, gas.btilde
    qa = (1.0 + beta * t * t) * ((g + 1.0 - 2.0 * bt) * beta - (g - 1.0))
    qb = 2.0 * t * (1.0 - bt * beta) * (1.0 + beta * beta * t * t)
    qc = (beta - 1.0) * ((g - 1.0 + 2.0 * bt * beta) * beta * t * t + (g + 1.0))
    return qb * qb - 4.0 * qa * qc


def outcome(oracle, *args):
    try:
        return ("value", oracle(*args))
    except (InternalInconsistencyError, DomainError) as exc:
        return (type(exc), str(exc))


def assert_same(args):
    want = outcome(full_scan_oracle, *args)
    got = outcome(checks._scan_oracle_minus_branch, *args)
    if want[0] == "value" and got[0] == "value":
        assert got[1].hex() == want[1].hex(), args  # bit-identical, -0.0 included
    else:
        assert got == want, args
    return want


def record_points(monkeypatch):
    """Every reflected-ratio argument the oracles evaluate, in call order."""
    real = checks._beta_r_of
    points = []

    def recorded(*args):
        beta_r = real(*args)

        def spy(r):
            points.append(r)
            return beta_r(r)

        return spy

    monkeypatch.setattr(checks, "_beta_r_of", recorded)
    return points


def test_gate_scans_few_reflected_ratios(monkeypatch):
    # the scan from -bound made 121,605 reflected-ratio calls over the gate's
    # 200 solves; the guided start makes 9,747
    points = record_points(monkeypatch)
    assert checks.check_reflection_solve().status == checks.PASS
    assert len(points) <= 12_000, len(points)


def test_seeded_inputs_match_the_full_scan():
    rng = random.Random(5150)
    kinds = {"value": 0, "no root": 0, "domain": 0, "full scan": 0}

    def check(beta, t, gas):
        kind, detail = assert_same((beta, t, gas))
        if kind == "value":
            kinds["value"] += 1
        elif detail == "scan oracle found no root":
            kinds["no root"] += 1
        else:
            kinds["domain"] += 1
        if kind == "value" or detail == "scan oracle found no root":
            # past the band check: a negative discriminant scans from -bound
            kinds["full scan"] += wedge_disc(beta, t, gas) < 0.0

    for _ in range(1000):
        g = rng.uniform(1.05, 3.0)
        bt = rng.choice([0.0, rng.uniform(0.0, 0.9)])
        gas = GasModel(g, bt)
        upper = (g + 1.0) / (g - 1.0 + 2.0 * bt)
        if rng.random() < 0.05:  # outside the admissible band
            beta = rng.choice([rng.uniform(0.5, 1.0 - 1e-6), upper * rng.uniform(1.01, 2.0)])
        else:
            beta = rng.uniform(1.0 + 1e-4, upper)
        # angles below critical are detached: the scan finds no root
        check(beta, math.tan(rng.uniform(0.01, math.pi / 2.0 - 0.01)), gas)
    assert min(kinds.values()) >= 20, kinds

    def in_band():
        gas = GasModel(rng.uniform(1.05, 3.0), rng.choice([0.0, rng.uniform(0.0, 0.9)]))
        return rng.uniform(1.0 + 1e-3, 0.999 * beta_upper(gas.gamma, gas.btilde)), gas

    # near grazing the two quadratic roots merge and the locator is weakest;
    # just below it the discriminant turns negative
    for _ in range(10):
        beta, gas = in_band()
        phi_star = criterion(beta, gas).phi_star
        for k in range(3, 15):
            for sign in (1.0, -1.0):
                check(beta, math.tan(phi_star * (1.0 + sign * 10.0 ** -k)), gas)
    assert kinds["full scan"] >= 100, kinds
    # with t < 0 both quadratic roots are positive, and the cleared condition's
    # other zero, r = beta*t, is negative: the scan starts at -bound
    found = kinds["value"]
    for _ in range(50):
        beta, gas = in_band()
        check(beta, -math.tan(rng.uniform(0.01, math.pi / 2.0 - 0.01)), gas)
    assert kinds["value"] - found >= 10, kinds


def poison(monkeypatch, pole, width, domain=None):
    """Inject a pole (and a DomainError window) into the reflected ratio.

    Returns one hit counter per oracle call, in call order.
    """
    real = checks._beta_r_of
    calls = []

    def patched(b, tan_phi_i, g, bt):
        beta_r = real(b, tan_phi_i, g, bt)
        hits = {"pole": 0, "domain": 0}
        calls.append(hits)

        def poisoned(r):
            if domain is not None and abs(r - domain) < width:
                hits["domain"] += 1
                raise DomainError("reflected-ratio denominator vanishes")
            if abs(r - pole) < width:
                hits["pole"] += 1
                # 1 + br*r*r = d passes through zero at the pole, where the wedge
                # function changes sign through +-1/d; |d| >= 1e-6 keeps it finite
                d = math.copysign(max(abs(r - pole), 1e-6), r - pole)
                return (d - 1.0) / (r * r)
            return beta_r(r)

        return poisoned

    monkeypatch.setattr(checks, "_beta_r_of", patched)
    return calls


POLE_CASE = (2.0, math.tan(math.radians(70.0)), GasModel(1.4, 0.2))


def test_rejected_pole_and_domain_error_below_the_root(monkeypatch):
    root = checks._scan_oracle_minus_branch(*POLE_CASE)
    assert root < -0.5
    # a pole of the wedge function at 1.75*root and a DomainError window at
    # 1.35*root, both between -bound = -3.13 and the root; the shipped oracle
    # starts its scan above both, so only the reference meets them
    calls = poison(monkeypatch, 1.75 * root, 0.03 * abs(root), domain=1.35 * root)
    assert assert_same(POLE_CASE) == ("value", root)
    reference, shipped = calls  # assert_same runs the reference first
    assert shipped == {"pole": 0, "domain": 0}
    assert reference["domain"] >= 2
    assert reference["pole"] >= 20  # the pole bracket was bisected and then rejected


def test_rejected_pole_between_the_scan_start_and_the_root(monkeypatch):
    points = record_points(monkeypatch)
    root = checks._scan_oracle_minus_branch(*POLE_CASE)
    monkeypatch.undo()
    # the shipped scan's first two grid points, both below the root
    first, second = points[:2]
    step = second - first
    assert second + step < root
    # the wedge function is positive below the root; a pole a quarter step
    # above the second point makes that point negative, so the shipped scan
    # bisects the brackets on both sides of it and rejects both roots
    calls = poison(monkeypatch, second + 0.25 * step, 0.5 * step)
    assert assert_same(POLE_CASE) == ("value", root)
    reference, shipped = calls
    assert shipped["pole"] >= 20
    assert reference["pole"] >= 20


def test_gate_fails_a_shifted_closed_form(monkeypatch):
    real = checks.solve_regular_reflection

    def shifted(inp, alpha, gas):
        sol = real(inp, alpha, gas)
        return sol._replace(phi_r=sol.phi_r + 1e-7)

    monkeypatch.setattr(checks, "solve_regular_reflection", shifted)
    assert checks.check_reflection_solve().status == checks.FAIL


#: phi = phi_star*(1 + 1e-12): the two roots share one bracket of the scan
GRAZING = (1.4550751703330582, math.tan(1.3843853475196815),
           GasModel(1.176139738330361, 0.5932036158560628))


def test_grazing_input_fails_the_gate_with_a_report(monkeypatch, capsys):
    assert outcome(checks._scan_oracle_minus_branch, *GRAZING) == (
        InternalInconsistencyError, "scan oracle found no root")
    real = checks._scan_oracle_minus_branch
    monkeypatch.setattr(checks, "_scan_oracle_minus_branch", lambda *args: real(*GRAZING))
    assert cli.main(["check"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    report = {r["name"]: r for r in json.loads(out)["checks"]}
    solve = report["reflection_solve"]
    assert solve["status"] == checks.FAIL
    assert solve["note"].startswith("scan oracle found no root at beta="), solve
