"""The gate's scan oracle stops at its first accepted root.

``full_scan_oracle`` below is the oracle as it was before the early exit: it
bisects every sign-change bracket of the same 1,500-point scan and returns
the least accepted root.  The shipped oracle must return the same float, or
raise the same exception, on every input.
"""

import math
import random

import pytest

from vdwshock import checks
from vdwshock.errors import DomainError
from vdwshock.shock_relations import check_incident_beta
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
        raise AssertionError("scan oracle found no root")
    return min(roots)


def outcome(oracle, *args):
    try:
        return ("value", oracle(*args))
    except (AssertionError, DomainError) as exc:
        return (type(exc), str(exc))


def assert_same(args):
    want = outcome(full_scan_oracle, *args)
    got = outcome(checks._scan_oracle_minus_branch, *args)
    if want[0] == "value" and got[0] == "value":
        assert got[1].hex() == want[1].hex(), args  # bit-identical, -0.0 included
    else:
        assert got == want, args
    return want


@pytest.fixture(scope="module")
def gate_samples():
    samples = []
    real = checks._scan_oracle_minus_branch

    def spy(beta, t, gas):
        samples.append((beta, t, gas))
        return real(beta, t, gas)

    mp = pytest.MonkeyPatch()
    mp.setattr(checks, "_scan_oracle_minus_branch", spy)
    try:
        checks.check_reflection_solve()
    finally:
        mp.undo()
    return samples


def test_gate_samples_match_the_full_scan(gate_samples):
    assert len(gate_samples) == 200
    for args in gate_samples:
        assert assert_same(args)[0] == "value"


def test_seeded_inputs_match_the_full_scan():
    rng = random.Random(5150)
    kinds = {"value": 0, "no root": 0, "domain": 0}
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
        t = math.tan(rng.uniform(0.01, math.pi / 2.0 - 0.01))
        kind, detail = assert_same((beta, t, gas))
        if kind == "value":
            kinds["value"] += 1
        elif detail == "scan oracle found no root":
            kinds["no root"] += 1
        else:
            kinds["domain"] += 1
    assert min(kinds.values()) >= 20, kinds


def test_rejected_pole_and_domain_error_below_the_root(monkeypatch):
    beta, t, gas = 2.0, math.tan(math.radians(70.0)), GasModel(1.4, 0.2)
    root = checks._scan_oracle_minus_branch(beta, t, gas)
    assert root < -0.5
    # a pole of the wedge function at 1.75*root and a DomainError window at
    # 1.35*root, both between the scan's start (-bound = -3.13) and the root
    pole, domain, width = 1.75 * root, 1.35 * root, 0.03 * abs(root)
    real = checks._beta_r_of
    hits = {"pole": 0, "domain": 0}

    def patched(b, tan_phi_i, g, bt):
        beta_r = real(b, tan_phi_i, g, bt)

        def poisoned(r):
            if abs(r - domain) < width:
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
    assert assert_same((beta, t, gas)) == ("value", root)
    assert hits["domain"] >= 2
    assert hits["pole"] >= 20  # the pole bracket was bisected and then rejected


def test_gate_fails_a_shifted_closed_form(monkeypatch):
    real = checks.solve_regular_reflection

    def shifted(inp, alpha, gas):
        sol = real(inp, alpha, gas)
        return sol._replace(phi_r=sol.phi_r + 1e-7)

    monkeypatch.setattr(checks, "solve_regular_reflection", shifted)
    assert checks.check_reflection_solve().status == checks.FAIL
