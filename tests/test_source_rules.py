"""Rules on the package's source text, each checked on one parse of every module.

Each module of ``src/vdwshock``, the ``reports`` package's included, is parsed
once and named by its path below the package (``reports/table.py``), each test
module by its file name.  Each rule is a function of a syntax tree, with a
self-test that plants a violation:
- no module-level import goes unused (a load anywhere, an annotation too, uses it);
- the kernels that run per table cell or grid row call no builtin ``max`` or
  ``min``, which costs about ten comparisons on Python 3.11;
- only ``shock_relations`` assigns the band ends or reads ``ENDPOINT_SLACK``,
  so a change of the slack moves every band test at once;
- the root certificate's sign rule is written only in ``_threshold_row``, the
  closed-form root (a cube root ``** (1.0 / 3.0)`` or an ``acos`` call) only in
  ``_depressed_root``, which only ``_threshold_row`` calls, and the NaN-keeping
  fold test, with ``>`` or ``<``, only in ``checks._fold``;
- only ``config`` writes out the default grids, the fixture's axes;
- no module binds a name of ``math`` but ``math`` itself, so a run that swaps a
  module's global ``math`` for higher-precision functions reaches every call;
- no test module calls a ``vdwshock`` function while it is imported, so a fault
  in the library fails its tests one by one instead of their collection.
"""

import ast
import functools
import hashlib
import inspect
from pathlib import Path

import pytest

import vdwshock
from vdwshock.config import RunConfig
from vdwshock.table_fixture import FIXTURE_BETA, FIXTURE_BTILDE, fixture_value

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vdwshock"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


#: path below the package -> syntax tree, for every module of the package
SOURCES = {path.relative_to(PACKAGE).as_posix(): _parse(path)
           for path in sorted(PACKAGE.glob("**/*.py"))}
#: file name -> syntax tree, for every test module
TESTS = {path.name: _parse(path) for path in sorted((ROOT / "tests").glob("*.py"))}


def found_in_package(rule):
    """{module: rule(tree)} of each package module in which the rule finds something."""
    return {name: found for name, tree in SOURCES.items() if (found := rule(tree))}


def unused_imports(tree):
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - used)


def test_the_check_sees_an_unused_import():
    source = "from math import pi, tau\nimport os.path\nimport sys\nprint(tau)\nsys = 1\n"
    assert unused_imports(ast.parse(source)) == ["os", "pi", "sys"]


@pytest.mark.parametrize("tree", [*SOURCES.values(), *TESTS.values()], ids=[*SOURCES, *TESTS])
def test_module_has_no_unused_import(tree):
    # each __init__.py exports through a module __getattr__, not by import
    assert unused_imports(tree) == []


#: module -> the kernels in it that must not call max or min
KERNELS = {
    "regular_reflection.py": ("_coeffs", "_depressed_root", "positive_root", "_bisection_root",
                              "_threshold_columns", "_threshold_row"),
    **{f"reports/{command}.py": (f"render_{command}",)
       for command in ("table", "field", "front", "inner")},
    "linear_acoustics.py": ("busemann_variable", "_row", "_interior_cells", "density_rows"),
    "thermo.py": ("_a0_kappa0",),  # once per front sweep row
}


def minmax_calls(tree, names):
    """{function name: [line of each max/min call]} for the module-level functions names."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    missing = set(names) - functions.keys()
    assert not missing, f"kernels not found: {sorted(missing)}"
    return {name: [node.lineno for node in ast.walk(functions[name])
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in ("max", "min")]
            for name in names}


def test_the_check_sees_a_call():
    source = ("def f(x):\n    return max(x, 1.0)\n"
              "def g(x):\n    def h():\n        return min(x, 0)\n    return h() + x.max()\n"
              "def k(x):\n    return abs(x)\n")
    assert minmax_calls(ast.parse(source), ("f", "g", "k")) == {"f": [2], "g": [5], "k": []}


@pytest.mark.parametrize("module", KERNELS)
def test_kernels_call_no_builtin_max_or_min(module):
    # tests/test_threshold_clamps.py shows each comparison returns the builtin's float
    calls = minmax_calls(SOURCES[module], KERNELS[module])
    assert calls == {name: [] for name in KERNELS[module]}


BAND_HOME = "shock_relations.py"
BAND_CONSTANTS = ("ENDPOINT_SLACK", "BAND_LOW", "BAND_TOP")


def _spelled(node):
    """The name a Name or an Attribute node spells, else None."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def band_uses(tree):
    """[("set" or "read", name, line)]: the band ends' assignments and the reads of the slack.

    A read is a load by name or as an attribute, or an import.
    """
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            uses += [("set", _spelled(sub), node.lineno) for target in targets
                     for sub in ast.walk(target) if _spelled(sub) in BAND_CONSTANTS]
        elif _spelled(node) == "ENDPOINT_SLACK" and isinstance(node.ctx, ast.Load):
            uses.append(("read", "ENDPOINT_SLACK", node.lineno))
        elif isinstance(node, ast.ImportFrom):
            uses += [("read", "ENDPOINT_SLACK", node.lineno) for alias in node.names
                     if alias.name == "ENDPOINT_SLACK"]
    return uses


def test_the_check_sees_each_use():
    source = ("from .shock_relations import ENDPOINT_SLACK\n"
              "BAND_LOW = 1.0 - ENDPOINT_SLACK\n"
              "def f(b, shock_relations):\n"
              "    top: float = 1.0 + shock_relations.ENDPOINT_SLACK\n"
              "    cfg.BAND_TOP = top\n"
              "    return b >= BAND_LOW\n")
    assert sorted(band_uses(ast.parse(source)), key=lambda use: use[2]) == [
        ("read", "ENDPOINT_SLACK", 1), ("set", "BAND_LOW", 2), ("read", "ENDPOINT_SLACK", 2),
        ("read", "ENDPOINT_SLACK", 4), ("set", "BAND_TOP", 5)]


def test_band_ends_are_defined_once_and_the_slack_is_read_only_at_home():
    found = found_in_package(band_uses)
    home = sorted(name for kind, name, _line in found.pop(BAND_HOME, []) if kind == "set")
    assert (home, found) == (sorted(BAND_CONSTANTS), {})


SIGN_RULE = ast.dump(ast.parse("not (h2 < 0.0 and h1 > 0.0)", mode="eval").body)
ONE_THIRD = ast.dump(ast.parse("1.0 / 3.0", mode="eval").body)


def _is_closed_form_root(node):
    """A power whose exponent is 1.0 / 3.0, or a call of acos, bare or as an attribute."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and ast.dump(node.right) == ONE_THIRD
            or isinstance(node, ast.Call) and _spelled(node.func) == "acos")


def _is_nan_keeping_fold(node):
    """x > worst or x != x, or x < least or x != x, for any expressions x, worst and least."""
    if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
            and len(node.values) == 2):
        return False
    beyond, nan = node.values
    return (isinstance(beyond, ast.Compare) and isinstance(nan, ast.Compare)
            and [type(op) for op in beyond.ops] in ([ast.Gt], [ast.Lt])
            and [type(op) for op in nan.ops] == [ast.NotEq]
            and ast.dump(beyond.left) == ast.dump(nan.left) == ast.dump(nan.comparators[0]))


def occurrences(tree):
    """[(clause, module-level function, line)] of the sign rule, closed-form root and fold test.

    A call of _depressed_root, bare or as an attribute, is a "closed-form call".
    """
    found = []
    for statement in tree.body:
        where = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            if ast.dump(node) == SIGN_RULE:
                found.append(("sign rule", where, node.lineno))
            elif _is_nan_keeping_fold(node):
                found.append(("nan-keeping fold", where, node.lineno))
            elif _is_closed_form_root(node):
                found.append(("closed-form root", where, node.lineno))
            elif isinstance(node, ast.Call) and _spelled(node.func) == "_depressed_root":
                found.append(("closed-form call", where, node.lineno))
    return found


def test_the_check_sees_each_clause():
    source = ("def kernel(h0, h1, h2, h3):\n"
              "    return h3 > 0.0 and not (h2 < 0.0 and h1 > 0.0)\n"
              "def fold(worst, gap, least, order):\n"
              "    if gap > worst or gap != gap:\n"
              "        worst = gap\n"
              "    if order < least or order != order:\n"
              "        least = order\n"
              "    return not (h1 > 0.0 and h2 < 0.0), worst, least\n"
              "SEEN = abs(x) > w or abs(x) != abs(x)\n"
              "def root(u, arg):\n"
              "    y = abs(u) ** (1.0 / 3.0) + cos(acos(arg) / 3.0)\n"
              "    return y + u ** (1 / 3) + math.acos(u)\n"
              "X = _depressed_root(m, n) - rr._depressed_root(m, n) + depressed_root(m)\n")
    assert occurrences(ast.parse(source)) == [
        ("sign rule", "kernel", 2), ("nan-keeping fold", "fold", 4),
        ("nan-keeping fold", "fold", 6), ("nan-keeping fold", "<module>", 9),
        ("closed-form root", "root", 11), ("closed-form root", "root", 12),
        ("closed-form root", "root", 11), ("closed-form call", "<module>", 13),
        ("closed-form call", "<module>", 13)]


def test_certificate_and_fold_each_have_one_home():
    # only the kernel takes the closed-form root, _depressed_root (two cube roots, one
    # acos); positive_root is the sign-change root; each check collects its values and
    # folds once
    found = [(clause, name, where) for name, places in found_in_package(occurrences).items()
             for clause, where, _line in places]
    closed_form = ("closed-form root", "regular_reflection.py", "_depressed_root")
    assert sorted(found) == [("closed-form call", "regular_reflection.py", "_threshold_row"),
                             closed_form, closed_form, closed_form,
                             ("nan-keeping fold", "checks.py", "_fold"),
                             ("sign rule", "regular_reflection.py", "_threshold_row")]


DEFAULT = RunConfig()
#: sha256 of each fixture cell's float.hex ("-" for a blank cell), in row order
CELLS_DIGEST = "1060dccf701ea98da465a2dbc4cf6934ebaf2a4b2976a3077b523b9fa1eb7fb6"


def grid_literals(tree):
    """Lines of the tuple and list literals in the tree that equal a default grid."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List)):
            try:
                value = tuple(ast.literal_eval(node))
            except (ValueError, TypeError):  # not a literal: it holds a name or a call
                continue
            if value in (DEFAULT.beta_grid, DEFAULT.btilde_grid):
                lines.append(node.lineno)
    return lines


def test_the_check_sees_a_literal():
    source = ("A = (0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 0.5, 0.7)\n"
              "B = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.3, 0.5]\n"
              "C = dict(zip([1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0,\n"
              "              3.2, 3.4, 3.6, 3.8, 4.0], rows))\n"
              "D = (x, 0.02)\n")
    assert grid_literals(ast.parse(source)) == [1, 3]


def test_fixture_axes_are_the_default_grids():
    assert FIXTURE_BETA is DEFAULT.beta_grid
    assert FIXTURE_BTILDE is DEFAULT.btilde_grid
    assert (len(FIXTURE_BETA), len(FIXTURE_BTILDE)) == (15, 9)


def test_only_config_writes_the_grids():
    found = found_in_package(grid_literals)
    assert {name: len(lines) for name, lines in found.items()} == {"config.py": 2}


def test_every_fixture_cell_keeps_its_value():
    # the value each cell held when the fixture wrote its own axes
    cells = [fixture_value(beta, bt) for beta in FIXTURE_BETA for bt in FIXTURE_BTILDE]
    text = " ".join("-" if value is None else value.hex() for value in cells)
    assert (len(cells), cells.count(None)) == (135, 34)
    assert hashlib.sha256(text.encode()).hexdigest() == CELLS_DIGEST


def math_imports(tree):
    """Lines of the imports that bind a name of math other than math: from math, or as."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "math"
                  or isinstance(node, ast.Import)
                  and any(alias.name == "math" and alias.asname for alias in node.names))


def test_the_check_sees_a_math_import():
    source = ("import math\nfrom math import sqrt\nimport os, math as m\n"
              "def f(x):\n    from math import pi\n    return sqrt(x) + m.cos(pi) + math.tau\n"
              "from cmath import sqrt as csqrt\n")
    assert math_imports(ast.parse(source)) == [2, 3, 5]


@pytest.mark.parametrize("tree", SOURCES.values(), ids=list(SOURCES))
def test_module_reaches_math_through_its_global(tree):
    assert math_imports(tree) == []


def import_time_calls(tree):
    """[(line, path)] of the vdwshock functions a module calls while it is imported.

    What runs is its body (class bodies, decorators and defaults included) and the
    body of each of its undecorated functions that this code calls.  Building a record,
    or calling a method of a value such as ``cli.__doc__.split``, is no such call.
    """
    bound = {"vdwshock": "vdwshock"}  # name -> the vdwshock path it is bound to
    bound.update((alias.asname or alias.name, f"{node.module}.{alias.name}") for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.module.startswith("vdwshock")
                 for alias in node.names)
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.decorator_list}
    calls, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):  # its body runs only when called
            stack += [*getattr(node, "decorator_list", []), *node.args.defaults,
                      *filter(None, node.args.kw_defaults)]
            continue
        stack += ast.iter_child_nodes(node)
        if isinstance(node, ast.Call) and (path := _spelled_path(node.func, bound)):
            obj = functools.reduce(getattr, path.split(".")[1:], vdwshock)
            if inspect.isfunction(obj) and obj.__module__.startswith("vdwshock"):
                calls.append((node.lineno, path))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions:
            stack += functions.pop(node.func.id).body
    return sorted(calls)


def _spelled_path(node, bound):
    """The vdwshock path that a Name or an Attribute chain spells, else None."""
    if isinstance(node, ast.Attribute):
        base = _spelled_path(node.value, bound)
        return base and f"{base}.{node.attr}"
    return bound.get(node.id) if isinstance(node, ast.Name) else None


def test_the_check_sees_an_import_time_call():
    source = ("import pytest\nimport vdwshock\nfrom vdwshock import checks\n"
              "from vdwshock.thermo import GasModel, reference_constants as rc\n"
              "def grid(gas=vdwshock.GasModel(1.2)._replace(btilde=0.1)):\n"
              "    return checks._ideal_gas_density(0.5, 1.0, 0.5), lambda: rc(1.0, 1.0, gas)\n"
              "@pytest.fixture\ndef deferred():\n    return rc(2.0, 1.0, GasModel(1.4))\n"
              "GRID, REF = [*grid(), grid()], rc(1.0, 1.0, GasModel(1.4))\n"
              "class TestCase:\n"
              "    @pytest.mark.parametrize('y', [vdwshock.corner_exponent(0.5)])\n"
              "    def test(self, y, z=checks._fold(0.0, 1.0)):\n"
              "        assert vdwshock.criterion(1.2, GasModel(1.4)) and deferred()\n")
    assert import_time_calls(ast.parse(source)) == [
        (6, "vdwshock.checks._ideal_gas_density"), (10, "vdwshock.thermo.reference_constants"),
        (12, "vdwshock.corner_exponent"), (13, "vdwshock.checks._fold")]


@pytest.mark.parametrize("tree", TESTS.values(), ids=list(TESTS))
def test_module_calls_no_library_function_on_import(tree):
    # a library fault would stop the module's collection, hiding which of its tests it breaks
    assert import_time_calls(tree) == []
