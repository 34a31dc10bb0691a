"""Batch command-line interface.

Usage: vdwshock <command> [--config FILE] [--output PATH] [--key value ...]
Commands: criterion, table, field, front, inner, check.
Exit codes: 0 success, 2 validation error, 3 internal-inconsistency detection
(including a verification report with failing entries).

A command line in the plain grammar ``<command> (--key value)*``, with every
key spelled exactly, is read by one walk over argv (``_walk``).  Every other
command line, among them ``-h``, ``--key=value``, abbreviated options and
malformed ones, goes to argparse, which is imported and built only then and
gives the same result the walk would wherever both apply.

Importing this module runs config and reports and registers every other
module a command may run, so that each command runs only its own modules.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import sys

from .config import RunConfig, parse_config
from .errors import DomainError, InternalInconsistencyError

# every module a command may run that config has not loaded is registered as an
# import would register it, in sys.modules and on the package, so a lookup there
# finds it, but its body runs on first use (the lazy loader takes no lock then, so
# the library's own import path does not use it)
for _name in ("checks", "geometry", "inner_singular", "linear_acoustics", "nonlinear_front",
              "regular_reflection", "shock_relations"):
    _full = f"{__package__}.{_name}"
    if _full not in sys.modules:
        _spec = importlib.util.find_spec(_full)
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_full] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_full])
        setattr(sys.modules[__package__], _name, sys.modules[_full])

from . import checks, reports  # noqa: E402  (after the loop: reports binds the lazy modules)

COMMANDS = (*reports.DATA_COMMANDS, "check")


@functools.cache
def _parser():
    """The argparse parser, built on first use: parsing does not change it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="vdwshock",
        description=(
            "Closed-form weak-shock reflection-diffraction tables, fields and "
            "verification reports for a covolume gas"
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument("--output", default=None, help="output path (default stdout)")
    return parser


_FIELD_KEYS = frozenset(f"--{field}" for field in RunConfig._fields)
# argparse passes a value of one of these shapes through to the extras right
# after its key, as a negative number or as an unknown option; any other
# value that starts with "-" it may read as -h, an abbreviation or an error
_SIGNED_STARTS = frozenset("-" + c for c in "0123456789.")


def _walk(argv: list[str]):
    """(command, config, output, extras) of a plain command line, else None.

    Plain means ``<command> (--key value)*`` where each key is ``--config``,
    ``--output`` or ``--<RunConfig field>``, a config or output value does not
    start with "-", and a field value does not start with "-" unless a digit
    or "." follows it.  On such a command line argparse's parse_known_args
    gives the same four values; the extras keep argv's order.
    """
    if not argv or argv[0] not in COMMANDS or not len(argv) % 2:
        return None
    config = output = None
    extras = []
    for i in range(1, len(argv), 2):
        key, value = argv[i], argv[i + 1]
        if key in _FIELD_KEYS:
            if value[:1] == "-" and value[:2] not in _SIGNED_STARTS:
                return None
            extras += key, value
        elif key == "--config" and value[:1] != "-":
            config = value
        elif key == "--output" and value[:1] != "-":
            output = value
        else:
            return None
    return argv[0], config, output, extras


def _parse_override_value(option: str, raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw
    except (ValueError, RecursionError) as exc:  # an int of too many digits, deep nesting
        raise DomainError(f"cannot read the value of {option}: {exc}") from None


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
        overrides[key] = _parse_override_value(token, extra[i + 1])
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
    if argv is None:
        argv = sys.argv[1:]
    parsed = _walk(argv)
    if parsed is None:
        args, extra = _parser().parse_known_args(argv)
        parsed = args.command, args.config, args.output, extra
    command, config, output, extra = parsed

    try:
        cfg = parse_config(config, _collect_overrides(extra))
        if command == "check":
            results = checks.run_all_checks()
            _emit(reports.json_text(checks.report_payload(results)), output)
            if any(r.status == checks.FAIL for r in results):
                return 3
        else:
            # each data command has its renderer reports.render_<command>,
            # looked up per call so that a wrapper patched onto reports is seen
            _emit(getattr(reports, f"render_{command}")(cfg), output)
    except DomainError as exc:
        sys.stderr.write(_error_object("validation", exc))
        return 2
    except InternalInconsistencyError as exc:
        sys.stderr.write(_error_object("internal-inconsistency", exc))
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
