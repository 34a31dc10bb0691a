"""Release-gate acceptance suite.

Runs every gate check at its stated tolerance and prints one pass/fail line
per criterion (run with ``pytest -rA`` to see the lines for passing tests).

Two checks fail by construction of the closed forms themselves and are left
red deliberately rather than loosened:

* ``table_trends``: the detachment threshold computed from the printed cubic
  is not strictly increasing in the density ratio at the top of the
  zero-covolume column (it peaks near beta_i = 3.4 and falls through 4.0; the
  stored reference table dips at the same corner, 1.0518 -> 1.0513).  Strict
  column monotonicity over the full default grid is therefore unattainable.
* ``cli_determinism``: its exit-code clause requires a report with zero fail
  entries, which the trends failure above makes impossible; the byte-level
  determinism clause itself holds.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vdwshock import checks

CRITERIA = [
    ("criterion_1", "cubic_self_consistency"),
    ("criterion_2", "table_trends"),
    ("criterion_3", "branch_limits"),
    ("criterion_4", "reflection_solve"),
    ("criterion_5", "geometry_incidence"),
    ("criterion_6", "linear_field"),
    ("criterion_7", "front_corrections"),
    ("criterion_8", "inner_region"),
    ("criterion_9", "cli_determinism"),
]


@pytest.fixture(scope="module")
def report():
    results = checks.run_all_checks()
    return {r.name: r for r in results}


@pytest.mark.parametrize("label, name", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(report, label, name):
    result = report[name]
    print(f"ACCEPTANCE {label} ({name}): {result.status.upper()} - {result.note}")
    assert result.status != checks.FAIL, result.note


def test_fixture_comparison_is_documented_not_gated(report):
    result = report["table_fixture_comparison"]
    print(f"ACCEPTANCE fixture ({result.name}): {result.status.upper()} - {result.note}")
    assert result.status == checks.DOCUMENTED


def test_full_suite_runtime_budget(report):
    # the report fixture ran the heavyweight checks once; this test simply
    # pins that every criterion produced a status, and that a PASS entry's
    # residual is finite and no larger than its tolerance
    assert len(report) == 10
    for result in report.values():
        assert result.status in (checks.PASS, checks.FAIL, checks.DOCUMENTED)
        if result.status == checks.PASS:
            assert math.isfinite(result.residual) and result.residual <= result.tolerance, result


def test_each_table_check_builds_its_own_default_table(count_calls):
    # the two table checks build the table with the row kernel, as the table
    # command does, and no run reuses another's table; a run's row-kernel calls
    # are the cubic check's 87 rows, 15 rows per default table, reflection_solve's
    # 200 one-column rows and cli_determinism's two criterion and two table renders:
    # 87 + 2 * 15 + 200 + 2 * (1 + 15) = 349
    counts = count_calls(["_default_table", "_threshold_row"])
    checks.run_all_checks()
    assert counts == {"_default_table": 2, "_threshold_row": 349}
    checks.run_all_checks()
    assert counts == {"_default_table": 4, "_threshold_row": 698}


def test_check_command_round_trip():
    # the CLI check subcommand serializes exactly the gate entries; the child
    # imports the same package as this test, wherever it was imported from
    src = str(Path(checks.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", "vdwshock.cli", "check"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    payload = json.loads(proc.stdout)
    assert {c["name"] for c in payload["checks"]} == {
        name for _, name in CRITERIA
    } | {"table_fixture_comparison"}
    fails = {c["name"] for c in payload["checks"] if c["status"] == "fail"}
    assert proc.returncode == (3 if fails else 0)
