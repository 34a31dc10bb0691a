"""Batch command-line interface.

Usage: vdwshock <command> [--config FILE] [--output PATH] [--key value ...]
Commands: criterion, table, field, front, inner, check.
Exit codes: 0 success, 2 validation error, 3 internal-inconsistency detection
(including a verification report with failing entries).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from . import reports
from .config import parse_config
from .errors import DomainError, InternalInconsistencyError

COMMANDS = ("criterion", "table", "field", "front", "inner", "check")

# only the check command runs the gate: vdwshock.checks is registered as an
# import would register it, so a lookup in sys.modules finds it, but its body
# runs on first use
_CHECKS = f"{__package__}.checks"
if _CHECKS not in sys.modules:
    _spec = importlib.util.find_spec(_CHECKS)
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_CHECKS] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_CHECKS])
    sys.modules[__package__].checks = sys.modules[_CHECKS]
checks = sys.modules[_CHECKS]

# built once per process: parsing does not change the parser
_PARSER = argparse.ArgumentParser(
    prog="vdwshock",
    description=(
        "Closed-form weak-shock reflection-diffraction tables, fields and "
        "verification reports for a covolume gas"
    ),
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", default=None, help="flat JSON config file")
_PARSER.add_argument("--output", default=None, help="output path (default stdout)")


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _collect_overrides(extra: list[str]) -> dict:
    overrides: dict = {}
    i = 0
    while i < len(extra):
        token = extra[i]
        if not token.startswith("--") or len(token) <= 2:
            raise DomainError(f"expected --key value pairs, got {token!r}")
        key = token[2:].replace("-", "_")
        if i + 1 >= len(extra):
            raise DomainError(f"missing value for option {token!r}")
        overrides[key] = _parse_override_value(extra[i + 1])
        i += 2
    return overrides


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write output file {output}: {exc}") from exc


def _error_object(kind: str, exc: Exception) -> str:
    return json.dumps(
        {"error": {"kind": kind, "message": str(exc)}}, sort_keys=True
    ) + "\n"


def main(argv: list[str] | None = None) -> int:
    args, extra = _PARSER.parse_known_args(argv)

    try:
        cfg = parse_config(args.config, _collect_overrides(extra))
        if args.command == "check":
            results = checks.run_all_checks()
            _emit(reports.json_text(checks.report_payload(results)), args.output)
            if any(r.status == checks.FAIL for r in results):
                return 3
        else:
            # each data command has its renderer reports.render_<command>,
            # looked up per call so that a wrapper patched onto reports is seen
            _emit(getattr(reports, f"render_{args.command}")(cfg), args.output)
    except DomainError as exc:
        sys.stderr.write(_error_object("validation", exc))
        return 2
    except InternalInconsistencyError as exc:
        sys.stderr.write(_error_object("internal-inconsistency", exc))
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
