"""Stored reference grid of detachment thresholds used for comparison reports.

The generated thresholds are compared cell by cell against this fixture; the
comparison is emitted as a report, never asserted as equality (the fixture's
producing parameters are not fully specified, see the companion check notes).
Blank cells mark inadmissible density ratios.
"""

from __future__ import annotations

from .config import RunConfig

#: the fixture's rows and columns: the default beta_grid and btilde_grid of a run
FIXTURE_BETA = RunConfig._field_defaults["beta_grid"]
FIXTURE_BTILDE = RunConfig._field_defaults["btilde_grid"]

_N = None

#: one row per FIXTURE_BETA entry, in order, one value per FIXTURE_BTILDE column
_ROWS: dict[float, tuple[float | None, ...]] = dict(zip(FIXTURE_BETA, (
    (0.2258, 0.2386, 0.2521, 0.2666, 0.2819, 0.2984, 0.5521, 1.2549, 6.0147),
    (0.5193, 0.5456, 0.5741, 0.6050, 0.6385, 0.6752, 1.3474, 4.4341, _N),
    (0.6975, 0.7380, 0.7825, 0.8318, 0.8865, 0.9475, 2.3010, 14.5824, _N),
    (0.8128, 0.8677, 0.9294, 0.9990, 1.0780, 1.1681, 3.6347, _N, _N),
    (0.8900, 0.9598, 1.0398, 1.1319, 1.2387, 1.3633, 5.6841, _N, _N),
    (0.9431, 1.0281, 1.1274, 1.2442, 1.3827, 1.5483, 9.0801, _N, _N),
    (0.9800, 1.0805, 1.2003, 1.3444, 1.5191, 1.7329, 15.2028, _N, _N),
    (1.0057, 1.1221, 1.2637, 1.4377, 1.6535, 1.9242, _N, _N, _N),
    (1.0235, 1.1561, 1.3209, 1.5278, 1.7903, 2.1277, _N, _N, _N),
    (1.0357, 1.1849, 1.3742, 1.6171, 1.9327, 2.3482, _N, _N, _N),
    (1.0436, 1.2098, 1.4252, 1.7077, 2.0831, 2.5901, _N, _N, _N),
    (1.0485, 1.2321, 1.4751, 1.8009, 2.2440, 2.8577, _N, _N, _N),
    (1.0511, 1.2525, 1.5248, 1.8979, 2.4172, 3.1555, _N, _N, _N),
    (1.0518, 1.2715, 1.5749, 1.9996, 2.6049, 3.4884, _N, _N, _N),
    (1.0513, 1.2897, 1.6259, 2.1069, 2.8088, 3.8619, _N, _N, _N),
), strict=True))


def fixture_row(beta_i: float) -> tuple[float | None, ...] | None:
    """Fixture row of a density ratio (matched to 6 decimals), or None."""
    return _ROWS.get(round(beta_i, 6))


def fixture_column(btilde: float) -> int | None:
    """Index of the first fixture column within 1e-9 of btilde, or None."""
    for col, bt in enumerate(FIXTURE_BTILDE):
        if abs(bt - btilde) <= 1e-9:
            return col
    return None


def fixture_value(beta_i: float, btilde: float) -> float | None:
    """Fixture threshold for a grid cell, or None for a blank/unknown cell."""
    row = fixture_row(beta_i)
    col = fixture_column(btilde)
    if row is None or col is None:
        return None
    return row[col]


def fixture_is_blank(beta_i: float, btilde: float) -> bool:
    return fixture_value(beta_i, btilde) is None
