"""Mutation matrix of the release gate over its guarded kernels.

The kernels are those of the threshold and reflection path, the diffraction
field, the nonlinear front, the inner region and the reference constants.

Each mutant scales one result of one private kernel by (1 + 1e-7) in every
vdwshock module that binds the kernel's name, then runs the whole gate.  A
mutant is killed when a check other than the two deliberate failures
(table_trends and cli_determinism) fails, or when the gate raises.  The kill
matrix (mutant x check) is printed; run with ``pytest -s`` or ``-rA`` to see
it.

Mutants the gate does not kill are strict xfails that name the gap: a new
gate check or a tighter tolerance would flip them, and strict mode then
requires the mark to go.
"""

import importlib
import pkgutil

import pytest

import vdwshock
from vdwshock import checks

SCALE = 1.0 + 1e-7
DELIBERATE = {"table_trends", "cli_determinism"}

MODULES = [vdwshock] + [
    importlib.import_module(f"vdwshock.{info.name}")
    for info in pkgutil.iter_modules(vdwshock.__path__)
]


def _scaled(value):
    if isinstance(value, float):
        return value * SCALE
    if isinstance(value, (list, tuple)):
        return type(value)(map(_scaled, value))
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


def scale_field(field):
    def wrap(func):
        def mutant(*args):
            out = func(*args)
            return out._replace(**{field: getattr(out, field) * SCALE})
        return mutant
    return wrap


def scale_ratio(func):
    # _beta_r_of returns the function r -> beta_r; scale what that returns
    def mutant(*args):
        beta_r = func(*args)
        return lambda r: beta_r(r) * SCALE
    return mutant


#: mutant id -> (kernel name, wrapper)
MUTANTS = {
    **{f"_coeffs.h{k}": ("_coeffs", scale_item(k)) for k in range(4)},
    "_closed": ("_closed", scale_result),
    "_beta_r_of": ("_beta_r_of", scale_ratio),
    "_branches.minus": ("_branches", scale_item(0)),
    "_tan_delta_r": ("_tan_delta_r", scale_result),
    **{f"_jump.{out}": ("_jump", scale_item(k)) for k, out in
       enumerate(("pressure_ratio", "tan_deflection", "M_up_sq", "M_down_sq"))},
    "beta_upper": ("beta_upper", scale_result),
    **{name: (name, scale_result) for name in (
        "_row", "_interior_cells", "_front_coefficient", "_arc_value", "_loci",
        "gradient_jump", "shock_strength", "shock_locus", "psi_root", "_parabola", "_lift")},
    **{f"reference_constants.{field}": ("reference_constants", scale_field(field))
       for field in ("a0", "kappa0", "c0")},
}

#: mutants the gate does not kill, with the gap each one shows
SURVIVORS = {
    "_jump.pressure_ratio": "no check compares p2 or the state behind the reflected "
                            "shock with an independent Hugoniot",
    "_jump.M_up_sq": "no check reads the incident upstream Mach number or the wall-point "
                     "speed u2 built from it",
    "_jump.M_down_sq": "no check reads M2_sq or the speeds built from it",
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
}


def _gate_under(name, wrap):
    with pytest.MonkeyPatch.context() as mp:
        bound = [m for m in MODULES if name in vars(m)]
        original = getattr(bound[0], name)
        mutant = wrap(original)
        for module in bound:
            assert getattr(module, name) is original, (module.__name__, name)
            mp.setattr(module, name, mutant)
        try:
            return {r.name: r.status for r in checks.run_all_checks()}
        except Exception as exc:  # a raise is a kill
            return type(exc).__name__


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


def killed(row):
    if isinstance(row, str):
        return True
    return any(status == checks.FAIL and name not in DELIBERATE for name, status in row.items())


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
