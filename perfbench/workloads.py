"""Seeded inputs for the four benchmark workloads and the checks on their outputs.

Each workload turns a seed into a fixed list of distinct ``vdwshock`` argument
vectors; the benchmark cycles through that list in a closed loop.  The program
only ever sees the generated arguments, never the seed.

Why these four:

* ``field_grid`` - ``field`` at about 10^4 cells: kernel-bound in
  linear_acoustics and geometry, with CSV formatting second.  Never touches
  regular_reflection or the gate, so root and gate changes must leave it alone.
  A quarter of the inputs put ``xi_min`` just below 1 so that near-front
  (tag-52) cells occur.
* ``threshold_table`` - ``table`` over dense, mostly admissible
  (beta_i, btilde) grids at a seeded gamma: bound by the detachment cubic and
  its root.  Never touches linear_acoustics or geometry.
* ``gate`` - repeated ``check``: the release gate, dominated by the
  reflection-solve oracle.  Its inputs are fixed by the gate's own seed.
* ``small_cmds`` - a stream of default-size ``criterion``, ``front`` and
  ``inner`` runs of about 1 ms: fixed per-call cost (argparse, config,
  validation) dominates, and it is the only workload that runs
  nonlinear_front and inner_singular.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("field_grid", "threshold_table", "gate", "small_cmds")

#: distinct inputs per seed; the timed loop cycles through them
CYCLE = {"field_grid": 24, "threshold_table": 24, "gate": 1, "small_cmds": 120}

FIELD_CELLS = 10_000
TABLE_CELLS = 2_000

#: the gate fails these two acceptance checks on purpose (see the project README)
GATE_FAILS = frozenset({"table_trends", "cli_determinism"})
GATE_EXIT = 3

HEADERS = {
    "table": ["beta_i", "btilde", "admissible", "J", "phi_star_deg", "fixture_J", "abs_diff"],
    "field": ["xi_over_kappa0", "theta", "region", "rho1", "formula_tag"],
    "front": ["btilde", "gradient_jump", "shock_locus_coeff", "shock_strength"],
    "inner": ["theta_prime", "r_prime", "S_R", "S_D", "sonic_S", "sonic_R",
              "U_reflected", "U_diffracted"],
}
#: columns that may be empty (a blank cell means "undefined here")
BLANKABLE = {
    "table": {"J", "phi_star_deg", "fixture_J", "abs_diff"},
    "field": set(),
    "front": set(),
    "inner": {"S_D", "U_diffracted"},
}
#: default grid sizes of the commands whose size the generators leave alone
FRONT_ROWS = 15
INNER_ROWS = 13 * 19
FIELD_REGIONS = {"Omega0", "Omega1", "Omega2", "OmegaTilde"}
CRITERION_KEYS = {
    "beta_i", "gamma", "btilde", "admissible", "upper_beta", "h0", "h1", "h2", "h3",
    "m", "n", "x_star", "J", "phi_star_rad", "phi_star_deg",
}


class OutputError(ValueError):
    """An output that is not what the command must print for its input."""


class Invocation:
    """One generated command line and what a correct run of it must produce."""

    __slots__ = ("argv", "command", "rows", "exit_code")

    def __init__(self, argv: list[str], rows: int | None = None, exit_code: int = 0):
        self.argv = argv
        self.command = argv[0]
        self.rows = rows
        self.exit_code = exit_code

    def items(self) -> int:
        """Work items one run completes: CSV rows for grids, else one."""
        return self.rows if self.command in ("field", "table") else 1


def _num(x: float) -> str:
    return repr(float(x))


def _field_inputs(rng: random.Random, count: int) -> list[Invocation]:
    out = []
    while len(out) < count:
        alpha_deg = rng.uniform(5.0, 85.0)
        btilde = rng.uniform(0.0, 0.9)
        xi_count = rng.randint(80, 125)
        theta_count = round(FIELD_CELLS / xi_count)
        near_front = len(out) % 4 == 3
        xi_min = 1.0 - 10.0 ** rng.uniform(-13.0, -11.5) if near_front else 10.0 ** rng.uniform(-6.0, -1.0)
        # The near-front asymptote is singular on the merge ray theta = 2*alpha;
        # keep every grid angle clear of it.
        alpha = math.radians(alpha_deg)
        k = alpha * (theta_count - 1) / (math.pi - alpha)
        if abs(k - round(k)) < 1e-3:
            continue
        argv = ["field", "--alpha_deg", _num(alpha_deg), "--btilde", _num(btilde),
                "--xi_min", _num(xi_min), "--xi_count", str(xi_count),
                "--theta_count", str(theta_count)]
        out.append(Invocation(argv, rows=xi_count * theta_count))
    return out


def _grid(lo: float, hi: float, count: int) -> list[float]:
    return [round(lo + (hi - lo) * i / (count - 1), 9) for i in range(count)]


def _table_inputs(rng: random.Random, count: int) -> list[Invocation]:
    out = []
    for _ in range(count):
        gamma = rng.uniform(1.05, 3.0)
        bt_max = rng.uniform(0.1, 0.7)
        upper = (gamma + 1.0) / (gamma - 1.0 + 2.0 * bt_max)
        beta_hi = 1.0 + (upper - 1.0) * rng.uniform(0.95, 1.3)
        n_beta = rng.randint(36, 56)
        n_bt = round(TABLE_CELLS / n_beta)
        argv = ["table", "--gamma", _num(gamma),
                "--beta_grid", json.dumps(_grid(1.02, beta_hi, n_beta)),
                "--btilde_grid", json.dumps(_grid(0.0, bt_max, n_bt))]
        out.append(Invocation(argv, rows=n_beta * n_bt))
    return out


def _small_inputs(rng: random.Random, count: int) -> list[Invocation]:
    out = []
    for i in range(count):
        gamma = rng.uniform(1.05, 3.0)
        btilde = rng.uniform(0.0, 0.9)
        kind = i % 3
        if kind == 0:
            upper = (gamma + 1.0) / (gamma - 1.0 + 2.0 * btilde)
            beta_i = 1.0 + (upper - 1.0) * rng.uniform(0.02, 0.98)
            argv = ["criterion", "--gamma", _num(gamma), "--btilde", _num(btilde),
                    "--beta_i", _num(beta_i)]
            out.append(Invocation(argv))
        elif kind == 1:
            alpha_deg = rng.uniform(5.0, 80.0)
            beta_deg = rng.uniform(alpha_deg + 1.0, 179.0 - alpha_deg)
            argv = ["front", "--gamma", _num(gamma), "--alpha_deg", _num(alpha_deg),
                    "--beta_deg", _num(beta_deg), "--epsilon", _num(rng.uniform(0.01, 0.3))]
            out.append(Invocation(argv, rows=FRONT_ROWS))
        else:
            argv = ["inner", "--gamma", _num(gamma), "--btilde", _num(btilde),
                    "--eta", _num(rng.uniform(-5.0, -0.01)),
                    "--theta0", _num(rng.uniform(-1.0, 1.0))]
            out.append(Invocation(argv, rows=INNER_ROWS))
    return out


def generate(workload: str, seed: int) -> list[Invocation]:
    """The distinct invocations of ``workload`` for ``seed``, in loop order."""
    rng = random.Random(f"{workload}:{seed}")
    count = CYCLE[workload]
    if workload == "field_grid":
        return _field_inputs(rng, count)
    if workload == "threshold_table":
        return _table_inputs(rng, count)
    if workload == "gate":
        return [Invocation(["check"], exit_code=GATE_EXIT)]
    if workload == "small_cmds":
        return _small_inputs(rng, count)
    raise ValueError(f"unknown workload {workload!r}")


def default_invocations() -> list[Invocation]:
    """Every command at its default configuration (the golden-digest set)."""
    return [
        Invocation(["criterion"]),
        Invocation(["table"], rows=15 * 9),
        Invocation(["field"], rows=21 * 25),
        Invocation(["front"], rows=FRONT_ROWS),
        Invocation(["inner"], rows=INNER_ROWS),
        Invocation(["check"], exit_code=GATE_EXIT),
    ]


def inputs_digest(invocations: list[Invocation]) -> str:
    return hashlib.sha256(json.dumps([inv.argv for inv in invocations]).encode()).hexdigest()


def _reject_constant(name: str):
    raise OutputError(f"non-finite JSON constant {name}")


def _strict_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OutputError(f"not valid JSON: {exc}") from exc


def _check_csv(command: str, text: str, rows: int) -> list[list[str]]:
    if not text.endswith("\n") or "\r" in text:
        raise OutputError("CSV must end in a newline and use bare \\n line ends")
    lines = text[:-1].split("\n")
    header = HEADERS[command]
    if lines[0].split(",") != header:
        raise OutputError(f"bad CSV header {lines[0]!r}")
    if len(lines) - 1 != rows:
        raise OutputError(f"expected {rows} rows, got {len(lines) - 1}")
    blankable = [h in BLANKABLE[command] for h in header]
    cells = []
    for line in lines[1:]:
        row = line.split(",")
        if len(row) != len(header):
            raise OutputError(f"row has {len(row)} cells, header has {len(header)}: {line!r}")
        for name, cell, may_blank in zip(header, row, blankable):
            if cell == "":
                if not may_blank:
                    raise OutputError(f"empty {name} cell in {line!r}")
            elif name == "admissible":
                if cell not in ("true", "false"):
                    raise OutputError(f"bad admissible cell {cell!r}")
            elif name == "region":
                if cell not in FIELD_REGIONS:
                    raise OutputError(f"unknown region {cell!r}")
            else:
                try:
                    value = float(cell)
                except ValueError:
                    raise OutputError(f"non-numeric {name} cell {cell!r}") from None
                if not math.isfinite(value):
                    raise OutputError(f"non-finite {name} cell {cell!r}")
        cells.append(row)
    return cells


def check_output(inv: Invocation, code: int, out: str, err: str) -> dict:
    """Raise OutputError unless the run is correct in form; return facts read from it.

    The facts are ``near_front_rows`` for ``field`` output (rows computed with
    the tag-52 near-front asymptote).
    """
    if code != inv.exit_code:
        raise OutputError(f"exit code {code}, expected {inv.exit_code}; stderr {err.strip()!r}")
    if err:
        raise OutputError(f"unexpected stderr {err.strip()!r}")
    facts = {}
    if inv.command == "criterion":
        payload = _strict_json(out)
        if not isinstance(payload, dict) or set(payload) != CRITERION_KEYS:
            raise OutputError("criterion report has the wrong keys")
    elif inv.command == "check":
        payload = _strict_json(out)
        try:
            fails = {c["name"] for c in payload["checks"] if c["status"] == "fail"}
        except (KeyError, TypeError) as exc:
            raise OutputError(f"malformed gate report: {exc!r}") from None
        if fails != GATE_FAILS:
            raise OutputError(f"gate fail set {sorted(fails)}, expected {sorted(GATE_FAILS)}")
    else:
        cells = _check_csv(inv.command, out, inv.rows)
        if inv.command == "field":
            facts["near_front_rows"] = sum(1 for row in cells if row[4] == "52")
    return facts
