"""No builtin max or min call in the kernels that run per table cell or per grid row.

On Python 3.11 a builtin max on two floats costs about ten comparisons, and
these kernels run thousands of times per command, so they clamp with a
comparison instead (tests/test_threshold_clamps.py shows each comparison
returns the builtin's float).  The check parses each module with ``ast`` and
looks for a call of the bare name ``max`` or ``min`` anywhere in the
kernel's body, nested functions included.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vdwshock"

#: module -> the kernels in it that must not call max or min
KERNELS = {
    "regular_reflection.py": ("_coeffs", "positive_root", "_bisection_root", "_threshold_columns",
                              "_threshold_row"),
    **{f"reports/{command}.py": (f"render_{command}",)
       for command in ("table", "field", "front", "inner")},
    "linear_acoustics.py": ("busemann_variable", "_row", "_interior_cells", "density_rows"),
    "thermo.py": ("_a0_kappa0",),  # once per front sweep row
}


def minmax_calls(source, names):
    """{function name: [line of each max/min call]} for the module-level functions names."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
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
    assert minmax_calls(source, ("f", "g", "k")) == {"f": [2], "g": [5], "k": []}


@pytest.mark.parametrize("module", KERNELS)
def test_kernels_call_no_builtin_max_or_min(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    calls = minmax_calls(source, KERNELS[module])
    assert calls == {name: [] for name in KERNELS[module]}
