"""Golden sha256 digests of every command's default-config output.

Every refactor and optimisation must leave these bytes unchanged.  The
digests are the ``defaults`` entries the benchmark records; they are copied
here so that the test suite stands on its own, and a test keeps the two
copies equal.
"""

import hashlib
import json
from pathlib import Path

import pytest

from vdwshock import cli

DEFAULT_DIGESTS = {
    "check": "28222e88edba5f659cd4482a30f66473b4e2d2a367ae87f293568b7b6586b6ee",
    "criterion": "388a17c30e27cab9a8d3fd18595bce5e7805d67388c53643a488832cdd86e4c4",
    "field": "86da8460b97dd0e994f1cf466370e86cdee9ac57f5e9c3030bd60bad154bc7bb",
    "front": "75897a197181e6b5360598271d62dcf111a2f743884e1fc5f96fd71df5684d74",
    "inner": "a28567b418f7add29db705d23069d94389bbbb713cfd7c3e479208242d2e9064",
    "table": "7d4b0bc88333e9136020ce0caf6519b6b3b67693c548e865d7d16ceafb437ea6",
}

#: the gate exits 3 because two acceptance checks fail on purpose
EXIT_CODES = {"check": 3}


@pytest.mark.parametrize("command", sorted(DEFAULT_DIGESTS))
def test_default_output_digest(capsys, command):
    code = cli.main([command])
    out, err = capsys.readouterr()
    assert code == EXIT_CODES.get(command, 0), err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_DIGESTS[command]


def test_digests_match_the_benchmark_record():
    # a re-pin must update both copies
    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    assert json.loads(path.read_text(encoding="utf-8"))["defaults"] == DEFAULT_DIGESTS
