"""Mutation matrix of the release gate over its guarded kernels.

The kernels are those of the threshold and reflection path, the diffraction
field, the nonlinear front, the inner region and the reference constants.

Each mutant scales one result of one private kernel by (1 + 1e-7), or for
the region decision swaps the Omega1 and Omega2 labels, in every vdwshock
module that binds the kernel's name, then runs the whole gate.  A
mutant is killed when a check other than the two deliberate failures
(table_trends and cli_determinism) fails, or when the gate raises.  Any
Exception raised inside a check becomes the FAIL entry of that check (of
both table checks when the default table build raises), so the check
command always prints its whole report; RAISING_MUTANTS hold one mutant of
each family that once ended it in a traceback.  NAN_MUTANTS make one kernel
return NaN, which must fail the check that reads it.  The kill
matrix (mutant x check) is printed; run with ``pytest -s`` or ``-rA`` to see
it.  Each row's kill, the set of non-deliberate checks that fail or the name
of the exception, is pinned in KILLS.  Whatever the mutant, a gate that
returns its results must also print them as strict JSON.

Mutants the gate does not kill are strict xfails that name the gap: a new
gate check or a tighter tolerance would flip them, and strict mode then
requires the mark to go.
"""

import contextlib
import json
import math

import pytest

from vdwshock import checks, cli, reports
from vdwshock.errors import DomainError, InternalInconsistencyError

from conftest import bindings

SCALE = 1.0 + 1e-7
DELIBERATE = {"table_trends", "cli_determinism"}


def _scaled(value, factor=SCALE):
    if isinstance(value, float):
        return value * factor
    if isinstance(value, (list, tuple)):
        return type(value)(_scaled(item, factor) for item in value)
    return value  # a formula tag or a locus that does not reach the ray


def scale_result(func):
    # every float the kernel returns, alone or in a list or tuple
    def mutant(*args):
        return _scaled(func(*args))
    return mutant


def scale_item(index):
    def wrap(func):
        def mutant(*args):
            out = list(func(*args))
            out[index] *= SCALE
            return tuple(out)
        return mutant
    return wrap


def nan_result(func):
    # every float the kernel returns, alone or in a list or tuple, becomes NaN
    def mutant(*args):
        return _scaled(func(*args), math.nan)
    return mutant


def scale_field(field, index=None, factor=SCALE):
    # one field of a record result, or one item of a tuple field
    def wrap(func):
        def mutant(*args):
            out = func(*args)
            value = getattr(out, field)
            if index is None:
                value *= factor
            else:
                value = (*value[:index], value[index] * SCALE, *value[index + 1:])
            return out._replace(**{field: value})
        return mutant
    return wrap


def scale_ratio(func):
    # _beta_r_of returns the function r -> beta_r; scale what that returns
    def mutant(*args):
        beta_r = func(*args)
        return lambda r: beta_r(r) * SCALE
    return mutant


def swap_regions(func):
    # the region decision returns a label, which no scale moves
    swap = {"Omega1": "Omega2", "Omega2": "Omega1"}

    def mutant(*args):
        region = func(*args)
        return swap.get(region, region)
    return mutant


#: mutant id -> (kernel name, wrapper)
MUTANTS = {
    **{f"_coeffs.h{k}": ("_coeffs", scale_item(k)) for k in range(4)},
    "_threshold_row": ("_threshold_row", scale_result),
    "_beta_r_of": ("_beta_r_of", scale_ratio),
    "_branches.minus": ("_branches", scale_item(0)),
    "_tan_delta_r": ("_tan_delta_r", scale_result),
    **{f"_jump.{out}": ("_jump", scale_item(k)) for k, out in
       enumerate(("pressure_ratio", "tan_deflection", "M_up_sq", "M_down_sq"))},
    "beta_upper": ("beta_upper", scale_result),
    **{f"solve_regular_reflection.{field}": ("solve_regular_reflection", scale_field(field))
       for field in ("beta_r", "phi_r", "delta_r", "M2_sq")},
    **{f"solve_regular_reflection.state2.{name}": ("solve_regular_reflection",
                                                   scale_field("state2", k))
       for k, name in enumerate(("rho2", "u2", "v2", "p2"))},
    **{name: (name, scale_result) for name in (
        "_row", "_interior_cells", "_front_coefficient", "_arc_value", "_loci",
        "gradient_jump", "shock_strength", "shock_locus", "psi_root", "_parabola", "_lift")},
    **{f"reference_constants.{field}": ("reference_constants", scale_field(field))
       for field in ("a0", "kappa0", "c0")},
    "_region": ("_region", swap_regions),
}

#: mutants the gate does not kill, with the gap each one shows
SURVIVORS = {
    "_jump.pressure_ratio": "no check compares p2 or the state behind the reflected "
                            "shock with an independent Hugoniot",
    "_jump.M_up_sq": "no check reads the incident upstream Mach number or the wall-point "
                     "speed u2 built from it",
    "_jump.M_down_sq": "no check reads M2_sq or the speeds built from it",
    "solve_regular_reflection.beta_r": "reflection_solve reads no reflected ratio, and the "
                                       "solve's own band test runs before this shift; no "
                                       "check compares the ratio with an oracle",
    "solve_regular_reflection.M2_sq": "no check reads M2_sq",
    **{f"solve_regular_reflection.state2.{name}": f"no check reads {name}, or any part of "
       "the state behind the reflected shock" for name in ("rho2", "u2", "v2", "p2")},
    "beta_upper": "no check compares the band edge with an independent bound, and a "
                  "1e-7 shift moves no sampled ratio or default table cell across it",
    "_front_coefficient": "linear_field samples no radius in the 1e-14 cancellation ring, "
                          "and front_corrections reads c_beta only through strengths it "
                          "tests for monotonicity in btilde, which a uniform scale preserves",
    "_arc_value": "linear_field takes its arc limits at sigma = 1 - 5e-13 through the "
                  "interior formula; no check samples the arc itself or the ring",
    "_loci": "no check reads a region label: geometry_incidence calls reflected_line "
             "itself, and the field checks read only rho1",
    "gradient_jump": "front_corrections tests the gradient jump only for decrease in "
                     "btilde, which a uniform scale preserves",
    "shock_strength": "front_corrections tests the front strength only for increase in "
                      "btilde, which a uniform scale preserves",
    "shock_locus": "front_corrections tests the shock locus only for increase in btilde, "
                   "which a uniform scale preserves",
    "_lift": "inner_region reads the lift only in the recovery 1 + lift(-1) = 1.25, whose "
             "1e-6 tolerance a 2.5e-8 shift passes",
    "reference_constants.a0": "geometry_incidence takes its expected endpoints from the "
                              "same a0, and no check compares a0 with sqrt(gamma*p0/"
                              "(rho0*(1-btilde)))",
    "reference_constants.c0": "the field's points round-trip xi -> zeta = xi*c0 -> xi, "
                              "which cancels the scale; no check compares c0 with a0/kappa0",
    "_region": "no check reads a region label",
}


#: mutant -> the non-deliberate checks it fails, or the exception the gate raises;
#: recorded from the matrix, so a kill that moves to another check shows
KILLS = {
    "_coeffs.h0": ("cubic_self_consistency",),
    "_coeffs.h1": ("cubic_self_consistency",),
    "_coeffs.h2": ("cubic_self_consistency",),
    "_coeffs.h3": ("cubic_self_consistency",),
    "_threshold_row": ("cubic_self_consistency",),
    "_beta_r_of": ("reflection_solve",),
    "_branches.minus": ("reflection_solve",),
    "_tan_delta_r": ("reflection_solve",),
    "_jump.pressure_ratio": (),
    "_jump.tan_deflection": ("reflection_solve",),
    "_jump.M_up_sq": (),
    "_jump.M_down_sq": (),
    "beta_upper": (),
    "solve_regular_reflection.beta_r": (),
    "solve_regular_reflection.phi_r": ("reflection_solve",),
    "solve_regular_reflection.delta_r": ("reflection_solve",),
    "solve_regular_reflection.M2_sq": (),
    "solve_regular_reflection.state2.rho2": (),
    "solve_regular_reflection.state2.u2": (),
    "solve_regular_reflection.state2.v2": (),
    "solve_regular_reflection.state2.p2": (),
    "_row": ("linear_field",),
    "_interior_cells": ("linear_field",),
    "_front_coefficient": (),
    "_arc_value": (),
    "_loci": (),
    "gradient_jump": (),
    "shock_strength": (),
    "shock_locus": (),
    "psi_root": ("front_corrections",),
    "_parabola": ("inner_region",),
    "_lift": (),
    "reference_constants.a0": (),
    "reference_constants.kappa0": ("inner_region",),
    "reference_constants.c0": (),
    "_region": (),
}


@contextlib.contextmanager
def mutated(name, wrap):
    """Every vdwshock module that binds the kernel name sees wrap(kernel) instead."""
    with pytest.MonkeyPatch.context() as mp:
        bound = bindings(name)
        original = getattr(bound[0], name)
        mutant = wrap(original)
        for module in bound:
            assert getattr(module, name) is original, (module.__name__, name)
            mp.setattr(module, name, mutant)
        yield


def _gate_under(name, wrap):
    """{check: status} of the gate under the mutant, or the name of what the gate raised."""
    with mutated(name, wrap):
        try:
            results = checks.run_all_checks()
        except Exception as exc:  # a raise is a kill
            return type(exc).__name__
    assert json.loads(reports.json_text(checks.report_payload(results)))  # the report prints
    assert all(math.isfinite(r.residual) and r.residual <= r.tolerance  # and agrees with itself
               for r in results if r.status == checks.PASS), results
    return {r.name: r.status for r in results}


@pytest.fixture(scope="module")
def unmutated():
    return {r.name: r.status for r in checks.run_all_checks()}


@pytest.fixture(scope="module")
def matrix(unmutated):
    rows = {mutant: _gate_under(*spec) for mutant, spec in MUTANTS.items()}
    names = list(unmutated)
    width = max(map(len, MUTANTS))
    print("\nkill matrix: F = check fails, . = passes; a raised exception spans the row")
    print(" " * width, " ".join(f"c{i + 1}" for i in range(len(names))))
    for mutant, row in rows.items():
        cells = row if isinstance(row, str) else " ".join(
            f"{'F' if row[n] == checks.FAIL else '.':>2}" for n in names)
        print(f"{mutant:<{width}}", cells)
    print(" ".join(f"c{i + 1}={n}" for i, n in enumerate(names)))
    return rows


def kills(row):
    if isinstance(row, str):
        return row
    return tuple(sorted(name for name, status in row.items()
                        if status == checks.FAIL and name not in DELIBERATE))


def killed(row):
    return bool(kills(row))


def test_unmutated_gate_fails_only_deliberately(unmutated):
    assert {name for name, status in unmutated.items() if status == checks.FAIL} == DELIBERATE
    assert not killed(unmutated)


@pytest.mark.parametrize("mutant", [
    pytest.param(m, marks=pytest.mark.xfail(strict=True, reason=SURVIVORS[m]))
    if m in SURVIVORS else m
    for m in MUTANTS
])
def test_gate_kills_mutant(matrix, mutant):
    assert killed(matrix[mutant]), matrix[mutant]


def test_kill_matrix_is_pinned(matrix):
    assert {mutant: kills(row) for mutant, row in matrix.items()} == KILLS
    assert {mutant for mutant, kill in KILLS.items() if not kill} == set(SURVIVORS)


def inconsistent_rows(func):
    # the threshold row kernel as it ends when a cell fails an internal consistency test
    def mutant(*args):
        func(*args)
        raise InternalInconsistencyError("row kernel poisoned after its last cell")
    return mutant


def test_check_command_reports_a_kernel_that_raises(capsys):
    # the threshold row kernel raises in the table build and in three checks; the
    # command still prints the whole report
    with mutated("_threshold_row", inconsistent_rows):
        code = cli.main(["check"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    entries = json.loads(out)["checks"]
    assert len(entries) == 10
    raised = {e["name"]: e for e in entries if e["note"].startswith("raised ")}
    assert set(raised) == {"cubic_self_consistency", "table_trends", "reflection_solve",
                           "cli_determinism", "table_fixture_comparison"}
    for entry in raised.values():
        assert (entry["status"], entry["residual"], entry["tolerance"]) == (checks.FAIL, None, None)
        assert entry["note"].startswith(
            "raised InternalInconsistencyError: row kernel poisoned"), entry


def test_a_failed_table_build_fails_both_table_checks(monkeypatch, unmutated):
    def raising(*args):
        raise DomainError("table build failed")

    monkeypatch.setattr(checks, "_default_table", raising)
    results = checks.run_all_checks()
    assert [r.name for r in results] == list(unmutated)
    failed = [r for r in results if r.name in ("table_trends", "table_fixture_comparison")]
    assert [(r.status, r.residual, r.note) for r in failed] == (
        2 * [(checks.FAIL, None, "raised DomainError: table build failed")])
    assert {r.name: r.status for r in results if r not in failed} == {
        name: status for name, status in unmutated.items() if name not in
        ("table_trends", "table_fixture_comparison")}


#: mutant id -> (kernel name, wrapper, the check that reads the kernel's NaN)
NAN_MUTANTS = {
    "_bisection_root": ("_bisection_root", nan_result, "cubic_self_consistency"),
    "tan_phi_r_branches": ("tan_phi_r_branches", nan_result, "branch_limits"),
    "solve_regular_reflection.phi_r": ("solve_regular_reflection",
                                       scale_field("phi_r", factor=math.nan), "reflection_solve"),
    "reflected_line": ("reflected_line", nan_result, "geometry_incidence"),
    "_interior_cells": ("_interior_cells", nan_result, "linear_field"),
    "psi_root": ("psi_root", nan_result, "front_corrections"),
}


@pytest.mark.parametrize("mutant", NAN_MUTANTS)
def test_a_nan_from_a_kernel_fails_its_check(mutant):
    # max(), min() and a bare > test each drop a NaN; the gate's folds keep it
    name, wrap, check = NAN_MUTANTS[mutant]
    row = _gate_under(name, wrap)
    assert row[check] == checks.FAIL, row


def test_a_zero_divisor_fails_its_check(capsys):
    # F(beta, 0) = 0 divides the cubic check's coefficient-sum error by zero
    with mutated("_f_terms", lambda func: lambda *args: (0.0, 0.0)):
        code = cli.main(["check"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    entries = {e["name"]: e for e in json.loads(out)["checks"]}
    assert len(entries) == 10
    entry = entries["cubic_self_consistency"]
    assert (entry["status"], entry["residual"]) == (checks.FAIL, None)
    assert entry["note"].startswith("raised ZeroDivisionError: "), entry


def _no_constant(name):
    raise AssertionError(f"non-finite {name} in the report")


def test_a_zero_residual_fails_its_check(capsys):
    # a finite-difference residual of exactly 0 made log2(0) raise a bare
    # ValueError out of linear_field, and check ended in a traceback; its
    # convergence order is -inf, which fails the order bound in the report
    def wrap(func):
        def mutant(field, xi, theta, h, ref):
            return 0.0 if h == 1e-2 else func(field, xi, theta, h, ref)
        return mutant

    with mutated("density_pde_residual", wrap):
        code = cli.main(["check"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    entries = {e["name"]: e for e in json.loads(out, parse_constant=_no_constant)["checks"]}
    assert len(entries) == 10
    entry = entries["linear_field"]
    assert entry["status"] == checks.FAIL, entry
    assert "min FD order -inf (need >= 1.9)" in entry["note"], entry


def negate_item(index):
    def wrap(func):
        def mutant(*args):
            out = list(func(*args))
            out[index] = -out[index]
            return tuple(out)
        return mutant
    return wrap


def band_top_at_one(func):
    # every column of the threshold kernel gets the band top 1.0
    def mutant(*args):
        return [(bt, 1.0, gp, two_bt) for bt, _top, gp, two_bt in func(*args)]
    return mutant


#: family -> (kernel name, wrapper, the check that reports it, the start of its note)
RAISING_MUTANTS = {
    # a negative squared Mach number reaches math.sqrt in solve_regular_reflection
    "sqrt of a negative": ("_jump", negate_item(2), "reflection_solve",
                           "raised ValueError: math domain error"),
    # every band bound below 1: the one-column row that check_reflection_solve reads
    # its critical angle from holds no cell, and indexing the None entry raises
    "empty threshold row": ("beta_upper", lambda func: lambda *args: func(*args) * 0.1,
                            "reflection_solve",
                            "raised TypeError: 'NoneType' object is not subscriptable"),
    # a formatter that returns a float breaks the string building of render_table
    "string building in reports": ("_fmt_float", lambda func: lambda value: value,
                                   "cli_determinism",
                                   "raised TypeError: unsupported operand type(s) for +"),
    # the kernel's band top moves below the band test: the kernel's entry is the only
    # admission, so the table reports the moved band as blank mismatches
    "band top apart from the band test": ("_threshold_columns", band_top_at_one,
                                          "table_trends", "blank mismatches: [("),
}


@pytest.mark.parametrize("family", RAISING_MUTANTS)
def test_check_reports_whatever_a_check_raises(capsys, family):
    name, wrap, check, note = RAISING_MUTANTS[family]
    with mutated(name, wrap):
        code = cli.main(["check"])
    out, err = capsys.readouterr()
    assert (code, err) == (3, "")
    entries = {e["name"]: e for e in json.loads(out, parse_constant=_no_constant)["checks"]}
    assert len(entries) == 10
    entry = entries[check]
    assert entry["status"] == checks.FAIL, entry
    assert entry["note"].startswith(note), entry
    if note.startswith("raised "):
        assert (entry["residual"], entry["tolerance"]) == (None, None), entry
