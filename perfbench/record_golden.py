"""Rewrite golden.json from the current sources.

Usage, from the root of a checkout:

    python3 perfbench/record_golden.py

Records the sha256 of every command's default-config output and, for each
shipped seed (SEEDS), the digest of each workload's generated inputs, a
digest prefix of each input's output and the call counts of one fully traced
pass over the inputs.  Every output must pass the structural checks before it
is recorded, and the traced output must equal the plain one.  Run it only on
a tree whose outputs are known to be right: the benchmark treats these
records as truth.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter

import run
import tracing
import workloads

SEEDS = range(20)


def digest_of(cli, inv: workloads.Invocation) -> str:
    code, out, err, _ = run.invoke(cli, inv.argv)
    workloads.check_output(inv, code, out, err)
    return hashlib.sha256(out.encode()).hexdigest()


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    from vdwshock import cli

    tracer = tracing.Tracer(tracing.SPANS + tracing.CHECK_SPANS, tracing.COUNTED)
    golden = {
        "defaults": {inv.command: digest_of(cli, inv) for inv in workloads.default_invocations()},
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        seeds = golden["workloads"][name] = {}
        for seed in SEEDS:
            invs = workloads.generate(name, seed)
            outputs, calls = [], Counter()
            for inv in invs:
                digest = digest_of(cli, inv)
                tracer.install()
                _, out, _, _ = run.invoke(cli, inv.argv)
                tracer.uninstall()
                if hashlib.sha256(out.encode()).hexdigest() != digest:
                    raise SystemExit(f"{name} seed {seed}: tracing changed the output of {inv.argv}")
                outputs.append(digest[:run.DIGEST_CHARS])
                calls.update(run.call_counts(tracer.take()))
            seeds[str(seed)] = {
                "inputs": workloads.inputs_digest(invs),
                "outputs": outputs,
                "calls": dict(sorted(calls.items())),
            }
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
