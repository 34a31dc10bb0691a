"""The band ends of the density ratio are defined once, in shock_relations.

A ratio is admitted from ``BAND_LOW = 1 - ENDPOINT_SLACK`` up to its bound
times ``BAND_TOP = 1 + ENDPOINT_SLACK``.  ``shock_relations._within``, the
threshold kernel's columns and its low-end test read these constants, so a
change of the slack moves every band test at once.  The check parses each
source module with ``ast``: the three names are assigned only in
``shock_relations``, and no other module reads ``ENDPOINT_SLACK``, by name,
as an attribute or through an import, since a module that did would rebuild
an end of the band.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vdwshock"
HOME = "shock_relations.py"
CONSTANTS = ("ENDPOINT_SLACK", "BAND_LOW", "BAND_TOP")


def _assigned(node):
    """Names an assignment node binds, as plain names or as attributes."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.append(sub.attr)
    return names


def band_uses(source):
    """(assignments, reads of ENDPOINT_SLACK): each a list of (name, line)."""
    assigned, read = [], []
    for node in ast.walk(ast.parse(source)):
        assigned += [(name, node.lineno) for name in _assigned(node) if name in CONSTANTS]
        if isinstance(node, ast.Name) and node.id == "ENDPOINT_SLACK" and isinstance(
                node.ctx, ast.Load):
            read.append(("ENDPOINT_SLACK", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "ENDPOINT_SLACK" and isinstance(
                node.ctx, ast.Load):
            read.append(("ENDPOINT_SLACK", node.lineno))
        elif isinstance(node, ast.ImportFrom):
            read += [("ENDPOINT_SLACK", node.lineno) for alias in node.names
                     if alias.name == "ENDPOINT_SLACK"]
    return assigned, read


def test_the_check_sees_each_use():
    source = ("from .shock_relations import ENDPOINT_SLACK\n"
              "BAND_LOW = 1.0 - ENDPOINT_SLACK\n"
              "def f(b, shock_relations):\n"
              "    top: float = 1.0 + shock_relations.ENDPOINT_SLACK\n"
              "    cfg.BAND_TOP = top\n"
              "    return b >= BAND_LOW\n")
    assert band_uses(source) == (
        [("BAND_LOW", 2), ("BAND_TOP", 5)],
        [("ENDPOINT_SLACK", 1), ("ENDPOINT_SLACK", 2), ("ENDPOINT_SLACK", 4)])


def test_band_ends_are_defined_once_and_the_slack_is_read_only_at_home():
    home, stray = [], {}
    for path in sorted(PACKAGE.glob("**/*.py")):  # the reports package's modules too
        name = path.relative_to(PACKAGE).as_posix()
        assigned, read = band_uses(path.read_text(encoding="utf-8"))
        if name == HOME:
            home = sorted(name for name, _line in assigned)
        elif assigned or read:
            stray[name] = assigned + read
    assert (home, stray) == (sorted(CONSTANTS), {})
