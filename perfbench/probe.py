"""Set-up probe, run in a fresh interpreter for every sample.

Usage: python3 probe.py SRC_DIR ARGV_JSON

Times the span from just before ``import vdwshock`` until the first
``parse_config`` returns while ``cli.main`` handles ARGV_JSON, then stops the
command.  Prints the seconds as JSON, with the times of the calibration
slices run just before and after the span.  Interpreter launch is not included.
"""

import json
import sys
import time

from calibration import calibrate


CALIBRATION_S = 0.005


class _ConfigParsed(Exception):
    """Raised from the patched parse_config; cli.main does not catch it."""


def main() -> None:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    cal_before = calibrate(CALIBRATION_S)
    t0 = time.perf_counter()
    from vdwshock import cli

    parse_config = cli.parse_config

    def parse_and_stop(*args, **kwargs):
        parse_config(*args, **kwargs)
        raise _ConfigParsed(time.perf_counter())

    cli.parse_config = parse_and_stop
    try:
        cli.main(argv)
    except _ConfigParsed as done:
        setup_s = done.args[0] - t0
        print(json.dumps({"setup_s": setup_s, "calibration_before_s": cal_before,
                          "calibration_after_s": calibrate(CALIBRATION_S)}))
        return
    raise SystemExit("parse_config was never reached")


if __name__ == "__main__":
    main()
