"""Every function the benchmark's tracer wraps must still exist.

perfbench/tracing.py names its spans as "<module>.<function>" inside the
vdwshock package and looks each one up with getattr when it installs, so a
renamed or deleted function would break every traced benchmark run.
"""

import importlib

import pytest

from conftest import perfbench

tracing = perfbench("tracing")


@pytest.mark.parametrize("qual", tracing.SPANS + tracing.COUNTED + tracing.CHECK_SPANS)
def test_traced_function_resolves(qual):
    mod_name, func = qual.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    assert callable(getattr(module, func, None)), qual


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
