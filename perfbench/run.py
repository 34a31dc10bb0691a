"""Closed-loop benchmark of the vdwshock batch CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, no threads: each generated command line goes through
``vdwshock.cli.main`` in this process, with stdout and stderr captured in
memory, and the next starts only when it returns.  Every output is checked
(exit code, strict CSV/JSON with the right row count, the gate's fail set,
golden sha256 digests); a failed check counts the invocation as failed.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from just before
  ``import vdwshock`` until the first ``parse_config`` returns;
* ``items_per_s``: work items completed per second spent inside
  ``cli.main`` (CSV rows for field and table, one report per gate run, one
  invocation for the small commands);
* ``p50_ms``, ``p90_ms``: latency of one ``cli.main`` call; a run makes at
  least 100 calls, so at least ten lie beyond p90;
* ``peak_rss_mb``: peak resident memory of this process;
* ``failed_frac``: failed / attempted invocations.  It is 0 on a healthy
  tree, so it is printed with the others but kept out of the result's
  metrics, where it would be the base of a relative bound;
  ``failed`` and ``attempted`` carry it.

All four timings are in reference-core time (see calibration.py): each
timed span is scaled by a fixed reference over the calibration slices run
just before and after it, which takes out most of the slowdown that other
tenants of a shared host impose.  The uncorrected values are printed in
the metadata line, and baseline.json records the spread between runs of
both, corrected and uncorrected.

``--trace 1`` alternates plain and traced calls of the same inputs and
reports the per-layer breakdown (see tracing.py): ``<layer>.calls`` per
invocation, averaged over one full pass of the seed's inputs, so it repeats
exactly for a seed; ``<layer>.self_ms`` as a median over the invocations
that call the layer;
``checks.<name>.ms`` inclusive, from the plain calls, where only the check
boundaries are wrapped; and ``trace.overhead_frac``, traced p50 over plain p50
minus one.  Within a run, every repeat of an input must reproduce its first
call counts exactly, and for a seed shipped in golden.json the counts of a
full pass must equal the recorded ones, so they repeat across runs too.

The last line of stdout is the JSON result; the lines before it give each
metric with its unit and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads
from calibration import calibrate, correct

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
BASELINE = HERE / "baseline.json"

MIN_SAMPLES = 100  # so that ten samples lie beyond p90
MAX_SECONDS = 140.0  # stop early rather than overrun the caller's time limit
SETUP_SAMPLES = 11
CALIBRATION_SHARE = 0.05  # calibration time after each call, as a share of the call
DIGEST_CHARS = 12  # per-input output digests are stored as sha256 prefixes


def layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for qual in tracing.SPANS:
        layer = tracing.layer_name(qual)
        for metric in ((f"{layer}.calls", "count"), (f"{layer}.self_ms", "ms")):
            if metric not in out:
                out.append(metric)
    out += [(f"{qual}.calls", "count") for qual in tracing.COUNTED]
    out += [
        (f"{tracing.ADMISSIBLE}.admissible_frac", "fraction"),
        ("reports.output_bytes", "bytes"),
        ("linear_acoustics.near_front_frac", "fraction"),
    ]
    out += [(f"checks.{name}.ms", "ms") for name in tracing.CHECKS]
    out += [("checks.run_all_checks.ms", "ms"), ("trace.overhead_frac", "fraction")]
    return out


def call_counts(stats: dict[str, tuple]) -> dict[str, int]:
    """Nonzero call counts of one fully traced invocation, admissible criteria included."""
    counts = {name: stat[0] for name, stat in stats.items() if stat[0]}
    admissible = stats[tracing.ADMISSIBLE][3]
    if admissible:
        counts[f"{tracing.ADMISSIBLE}/admissible"] = admissible
    return counts


def invoke(cli, argv: list[str]) -> tuple[int | None, str, str, float]:
    """Run one command in process; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a bad command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this invocation, not the run
            code = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), dt


class Checker:
    """Checks each distinct input's first output in full and pins its repeats to it."""

    def __init__(self, invocations: list[workloads.Invocation], golden: list[str] | None):
        self.invocations = invocations
        self.golden = golden
        self.first: dict[int, tuple] = {}
        self.facts: dict[int, dict] = {}
        self.failures: Counter = Counter()

    def check(self, idx: int, code, out: str, err: str) -> bool:
        data = out.encode()
        sig = (code, err, hashlib.sha256(data).hexdigest())
        if idx in self.first:
            if sig == self.first[idx]:
                return True
            return self._fail(f"input {idx}: output differs from its first run")
        inv = self.invocations[idx]
        try:
            facts = workloads.check_output(inv, code, out, err)
        except workloads.OutputError as exc:
            return self._fail(f"{inv.command}: {exc}")
        if self.golden is not None and sig[2][:DIGEST_CHARS] != self.golden[idx]:
            return self._fail(f"input {idx}: golden digest mismatch")
        facts["bytes"] = len(data)
        self.first[idx] = sig
        self.facts[idx] = facts
        return True

    def _fail(self, reason: str) -> bool:
        self.failures[reason[:300]] += 1
        return False


def probe_setup(argv: list[str]) -> tuple[list[float], list[tuple]]:
    """Set-up seconds from SETUP_SAMPLES fresh interpreters, with the slices around each.

    One unmeasured probe runs first, because it also compiles the bytecode cache.
    """
    samples, around = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(argv)],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.strip()}")
        if i > 0:
            probe = json.loads(proc.stdout)
            samples.append(probe["setup_s"])
            around.append((probe["calibration_before_s"], probe["calibration_after_s"]))
    return samples, around


def p90_rank(n: int) -> int:
    """1-based nearest rank of the 90th percentile among n samples."""
    return max(1, math.ceil(0.9 * n))


def run_plain(cli, invs, checker, seconds, setup) -> tuple[dict, int, int, dict]:
    """Closed loop over the inputs, with calibration slices between calls.

    Returns the end-to-end metrics as {name: (value, unit)}, the numbers of
    attempted and failed calls, and notes for the metadata line.
    """
    raw, gaps, items, failed = [], [calibrate()], 0, 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(raw) >= MIN_SAMPLES) or elapsed >= MAX_SECONDS:
            break
        idx = len(raw) % len(invs)
        code, out, err, dt = invoke(cli, invs[idx].argv)
        gaps.append(calibrate(CALIBRATION_SHARE * dt))
        raw.append(dt)
        if checker.check(idx, code, out, err):
            items += invs[idx].items()
        else:
            failed += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_raw, setup_around = setup
    lat = sorted(correct(raw, list(zip(gaps, gaps[1:]))))
    raw.sort()
    rank = p90_rank(len(lat))
    metrics = {
        "setup_s": (statistics.median(correct(setup_raw, setup_around)), "s"),
        "items_per_s": (items / sum(lat), "1/s"),
        "p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "p90_ms": (lat[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {
        "samples": {"latency": len(lat), "beyond_p90": len(lat) - rank, "setup": len(setup_raw)},
        "uncorrected": {"p50_ms": statistics.median(raw) * 1e3, "p90_ms": raw[rank - 1] * 1e3,
                        "setup_s": statistics.median(setup_raw)},
    }
    return metrics, len(lat), failed, notes


def run_traced(cli, invs, checker, seconds, golden_calls) -> tuple[dict, int, int, dict]:
    """Alternate a plain call (only check boundaries wrapped) and a fully traced call per input.

    ``golden_calls`` holds the recorded call counts of one full pass over the
    inputs, or None for a seed that golden.json does not ship.

    Returns the per-layer metrics as {name: (value, unit)}, the numbers of
    attempted and failed calls, and notes for the metadata line.
    """
    plain = tracing.Tracer(tracing.CHECK_SPANS)
    full = tracing.Tracer(tracing.SPANS + tracing.CHECK_SPANS, tracing.COUNTED)
    plain_lat, full_lat, failed = [], [], 0
    check_ms: dict[str, list[float]] = {q: [] for q in tracing.CHECK_SPANS}
    self_ms: dict[str, list[float]] = {name: [] for name in full.stats}
    cycle_calls: Counter = Counter()
    first_counts: dict[int, dict] = {}
    start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and n >= len(invs)) or elapsed >= MAX_SECONDS:
            break
        idx = n % len(invs)
        argv = invs[idx].argv

        plain.install()
        code, out, err, dt = invoke(cli, argv)
        plain.uninstall()
        stats = plain.take()
        plain_lat.append(dt)
        failed += not checker.check(idx, code, out, err)
        for qual in tracing.CHECK_SPANS:
            check_ms[qual].append(stats[qual][2] * 1e3)

        full.install()
        code, out, err, dt = invoke(cli, argv)
        full.uninstall()
        stats = full.take()
        full_lat.append(dt)
        failed += not checker.check(idx, code, out, err)
        for name, stat in stats.items():
            if stat[0]:
                self_ms[name].append(stat[1] * 1e3)
        counts = call_counts(stats)
        if idx not in first_counts:
            first_counts[idx] = counts
            cycle_calls.update(counts)
        elif counts != first_counts[idx]:
            failed += 1
            checker.failures[f"input {idx}: call counts differ from its first traced run"] += 1
        n += 1
    if len(first_counts) < len(invs):
        failed += 1
        checker.failures["the run ended before one full pass over the inputs"] += 1
    elif golden_calls is not None and dict(cycle_calls) != golden_calls:
        failed += 1
        diff = sorted(k for k in golden_calls.keys() | cycle_calls.keys()
                      if golden_calls.get(k, 0) != cycle_calls[k])
        checker.failures[f"call counts of a full pass differ from the recorded ones: {diff}"] += 1

    passes = len(invs)
    metrics = {}
    for name in full.stats:
        metrics[f"{name}.calls"] = cycle_calls[name] / passes
        metrics[f"{name}.self_ms"] = statistics.median(self_ms[name]) if self_ms[name] else 0.0
    criterion_calls = cycle_calls[tracing.ADMISSIBLE]
    metrics[f"{tracing.ADMISSIBLE}.admissible_frac"] = (
        cycle_calls[tracing.ADMISSIBLE + "/admissible"] / criterion_calls if criterion_calls else 0.0
    )
    facts = checker.facts.values()
    metrics["reports.output_bytes"] = sum(f["bytes"] for f in facts) / max(1, len(facts))
    field_rows = sum(invs[i].rows for i, f in checker.facts.items() if "near_front_rows" in f)
    metrics["linear_acoustics.near_front_frac"] = (
        sum(f.get("near_front_rows", 0) for f in facts) / field_rows if field_rows else 0.0
    )
    for qual in tracing.CHECK_SPANS:
        name = qual.removeprefix("checks.").removeprefix("check_")
        metrics[f"checks.{name}.ms"] = statistics.median(check_ms[qual])
    metrics["trace.overhead_frac"] = statistics.median(full_lat) / statistics.median(plain_lat) - 1.0
    notes = {"samples": {"plain_calls": n, "traced_calls": n}, "patched_sites": full.sites()}
    return {name: (metrics[name], unit) for name, unit in layer_metrics()}, 2 * n, failed, notes


def check_defaults(cli, golden: dict, traced: bool) -> tuple[int, int]:
    """Run every command at its default config; return (attempted, failed)."""
    tracer = tracing.Tracer(tracing.SPANS + tracing.CHECK_SPANS, tracing.COUNTED) if traced else None
    failed = 0
    invs = workloads.default_invocations()
    for inv in invs:
        if tracer is not None:
            tracer.install()
        code, out, err, _ = invoke(cli, inv.argv)
        if tracer is not None:
            tracer.uninstall()
        try:
            workloads.check_output(inv, code, out, err)
            if hashlib.sha256(out.encode()).hexdigest() != golden[inv.command]:
                raise workloads.OutputError("golden digest mismatch")
        except workloads.OutputError as exc:
            failed += 1
            print(f"default-config {inv.command}: {exc}", file=sys.stderr)
    return len(invs), failed


def host_metadata(args) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    spread = None
    if BASELINE.is_file():
        recorded = json.loads(BASELINE.read_text())["workloads"].get(args.workload)
        if recorded:
            spread = {name: m["spread"] for name, m in recorded["metrics"].items()}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu, "git_commit": commit, "recorded_spread": spread,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (SRC / "vdwshock" / "cli.py").is_file():
        print(f"no vdwshock sources under {SRC}", file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN.read_text())
    invs = workloads.generate(args.workload, args.seed)
    shipped = golden["workloads"][args.workload].get(str(args.seed))
    inputs_ok = shipped is None or shipped["inputs"] == workloads.inputs_digest(invs)
    if not inputs_ok:
        print(f"generated inputs for seed {args.seed} differ from the recorded ones",
              file=sys.stderr)
    recorded = shipped if shipped and inputs_ok else None
    checker = Checker(invs, recorded["outputs"] if recorded else None)

    setup = None if args.trace else probe_setup(invs[0].argv)
    sys.path.insert(0, str(SRC))
    from vdwshock import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported vdwshock from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, attempted, failed, notes = run_traced(
            cli, invs, checker, args.seconds, recorded["calls"] if recorded else None)
    else:
        metrics, attempted, failed, notes = run_plain(cli, invs, checker, args.seconds, setup)
    d_attempted, d_failed = check_defaults(cli, golden["defaults"], bool(args.trace))
    attempted += d_attempted
    failed += d_failed
    for reason, count in checker.failures.most_common(10):
        print(f"failed x{count}: {reason}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    if not args.trace:
        print(f"{args.workload} failed_frac {failed / attempted!r} fraction")
    print(json.dumps({"meta": {**host_metadata(args), **notes}}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and inputs_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
