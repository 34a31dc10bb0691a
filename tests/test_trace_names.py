"""Every function the benchmark's tracer wraps must still exist.

perfbench/tracing.py names its spans as "<module>.<function>" inside the
vdwshock package and looks each one up with getattr when it installs, so a
renamed or deleted function would break every traced benchmark run.  It
reads each module from sys.modules, so a module must be there once
vdwshock.cli is imported, as perfbench/run.py builds its tracer then.
"""

import importlib
import os
import subprocess
import sys

import pytest

from conftest import PERFBENCH, perfbench

tracing = perfbench("tracing")
SRC = str(PERFBENCH.parent / "src")


@pytest.mark.parametrize("qual", tracing.SPANS + tracing.COUNTED + tracing.CHECK_SPANS)
def test_traced_function_resolves(qual):
    mod_name, func = qual.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    assert callable(getattr(module, func, None)), qual


def test_tracer_builds_right_after_a_cold_cli_import():
    # perfbench/run.py builds its tracer right after importing cli, so the tracer
    # finds each module it patches only where cli has registered it; against a
    # tracer built once every module is imported, it lacks only the renderer
    # modules' own bindings, which cli.main never calls (it calls reports.render_*)
    code = (f"import sys\nimport vdwshock.cli\nsys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import importlib, pkgutil, tracing, vdwshock\n"
            "def sites():\n"
            "    spans = tracing.SPANS + tracing.CHECK_SPANS\n"
            "    print(*tracing.Tracer(spans, tracing.COUNTED).sites())\n"
            "sites()\n"
            "for info in pkgutil.walk_packages(vdwshock.__path__, 'vdwshock.'):\n"
            "    importlib.import_module(info.name)\n"
            "sites()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    cold, warm = (set(line.split()) for line in proc.stdout.splitlines())
    assert sorted(warm - cold) == [
        f"reports.{command}.render_{command}" for command in ("field", "front", "inner", "table")]
    assert cold < warm


class _ParseConfigReached(Exception):
    """Raised from the stub put in place of cli.parse_config."""


@pytest.mark.parametrize("argv", [
    ["front", "--xi_count", "5"],  # the plain grammar
    ["front", "--xi-count", "5"],  # a hyphenated key
    ["front", "--xi_count=5"],  # a key with its value attached
])
def test_main_calls_parse_config_through_the_module(monkeypatch, argv):
    # perfbench/probe.py times set-up by patching cli.parse_config, and the
    # tracer wraps it the same way, so every spelling of a key must reach it there
    from vdwshock import cli

    def stub(*args):
        raise _ParseConfigReached(args)

    monkeypatch.setattr(cli, "parse_config", stub)
    with pytest.raises(_ParseConfigReached) as info:
        cli.main(argv)
    assert info.value.args[0] == (None, {"xi_count": 5})
