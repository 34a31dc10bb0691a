"""The root certificate and the NaN-keeping fold are each written once.

The threshold row kernel ``regular_reflection._threshold_row`` accepts a
closed-form root on an O(1) certificate, Descartes' rule of signs plus a sign
bracket; ``positive_root`` always cross-checks by bisection instead.  So the
certificate's sign-rule clause ``not (h2 < 0.0 and h1 > 0.0)`` appears only
in the kernel.  The gate folds each worst case with ``checks._fold``, whose
test ``x > worst or x != x`` keeps a NaN that ``max`` and a bare ``>`` drop;
every check collects its values and folds them once, so no loop writes the
test out in place.  A NaN-keeping minimum (``x < least or x != x``) is not a
fold and is not counted.  The check parses each source module with ``ast``
and reports the module-level function around each occurrence.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vdwshock"
SIGN_RULE = ast.dump(ast.parse("not (h2 < 0.0 and h1 > 0.0)", mode="eval").body)


def _is_nan_keeping_max(node):
    """x > worst or x != x, for any expressions x and worst."""
    if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
            and len(node.values) == 2):
        return False
    above, nan = node.values
    return (isinstance(above, ast.Compare) and isinstance(nan, ast.Compare)
            and [type(op) for op in above.ops] == [ast.Gt]
            and [type(op) for op in nan.ops] == [ast.NotEq]
            and ast.dump(above.left) == ast.dump(nan.left) == ast.dump(nan.comparators[0]))


def occurrences(source):
    """{clause: [(function, line)]} of the sign-rule clause and the NaN-keeping max test."""
    found = {"sign rule": [], "nan-keeping max": []}
    for statement in ast.parse(source).body:
        where = getattr(statement, "name", "<module>")
        for node in ast.walk(statement):
            if ast.dump(node) == SIGN_RULE:
                found["sign rule"].append((where, node.lineno))
            elif _is_nan_keeping_max(node):
                found["nan-keeping max"].append((where, node.lineno))
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
              "SEEN = abs(x) > w or abs(x) != abs(x)\n")
    assert occurrences(source) == {"sign rule": [("kernel", 2)],
                                   "nan-keeping max": [("fold", 4), ("<module>", 9)]}


def test_certificate_and_fold_each_have_one_home():
    found = {"sign rule": [], "nan-keeping max": []}
    for path in sorted(PACKAGE.glob("**/*.py")):  # the reports package's modules too
        for clause, places in occurrences(path.read_text(encoding="utf-8")).items():
            found[clause] += [(path.relative_to(PACKAGE).as_posix(), where)
                              for where, _line in places]
    assert found == {"sign rule": [("regular_reflection.py", "_threshold_row")],
                     "nan-keeping max": [("checks.py", "_fold")]}
