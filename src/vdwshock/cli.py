"""Batch command-line interface.

Usage: vdwshock <command> [--config FILE] [--output PATH] [--key value ...]
Commands: criterion, table, field, front, inner, check.
A key is --config, --output or a config key; it may be written with "-" for
"_" and as --key=value.  -h or --help prints this paragraph.
Exit codes: 0 success, 2 validation error, 3 internal-inconsistency detection
(including a verification report with failing entries).

One walk over argv (``_read``) reads the command line; a line outside the
grammar ``<command> (--key value)*`` is a validation error.

Importing this module runs config and the reports package (its shared
formatting, not a renderer) and registers every other module a command may
run, so that each command runs only its own modules; a data command's
renderer module is imported on its first lookup in reports.
"""

from __future__ import annotations

import importlib.util
import json
import sys

from .config import parse_config
from .errors import DomainError, InternalInconsistencyError

# every module a command may run that config has not loaded is registered as an
# import would register it, in sys.modules and on the package, so a lookup there
# finds it, but its body runs on first use (the lazy loader takes no lock then, so
# the library's own import path does not use it)
for _name in ("checks", "geometry", "inner_singular", "linear_acoustics", "nonlinear_front",
              "regular_reflection", "shock_relations", "table_fixture"):
    _full = f"{__package__}.{_name}"
    if _full not in sys.modules:
        _spec = importlib.util.find_spec(_full)
        _spec.loader = importlib.util.LazyLoader(_spec.loader)
        sys.modules[_full] = importlib.util.module_from_spec(_spec)
        _spec.loader.exec_module(sys.modules[_full])
        setattr(sys.modules[__package__], _name, sys.modules[_full])

from . import checks, reports  # noqa: E402  (after the loop: checks is a lazy module)

COMMANDS = (*reports.DATA_COMMANDS, "check")


def _parse_override_value(option: str, raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw
    except (ValueError, RecursionError) as exc:  # an int of too many digits, deep nesting
        raise DomainError(f"cannot read the value of {option}: {exc}") from None


def _read(argv: list[str]):
    """(command, config, output, overrides) of a command line, or None for help.

    One pass over ``<command> (--key value)*``.  Each override value is
    JSON-decoded in argv order (one that is not JSON stays a string); a
    --config or --output value is taken as written, and the last one wins.
    """
    if argv and argv[0] in ("-h", "--help"):
        return None
    if not argv or argv[0] not in COMMANDS:
        got = repr(argv[0]) if argv else "nothing"
        raise DomainError(f"expected a command ({', '.join(COMMANDS)}), got {got}")
    config = output = None
    overrides: dict = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        option, eq, value = token.partition("=")
        if not option.startswith("--") or len(option) <= 2:
            raise DomainError(f"expected --key value pairs, got {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise DomainError(f"missing value for option {token!r}")
        key = option[2:].replace("-", "_")
        if key == "config":
            config = value
        elif key == "output":
            output = value
        else:
            overrides[key] = _parse_override_value(option, value)
    return argv[0], config, output, overrides


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
    try:
        parsed = _read(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(__doc__.split("\n\n")[1] + "\n")
            return 0
        command, config, output, overrides = parsed
        cfg = parse_config(config, overrides)
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
