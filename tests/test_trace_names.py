"""Every function the benchmark's tracer wraps must still exist.

perfbench/tracing.py names its spans as "<module>.<function>" inside the
vdwshock package and looks each one up with getattr when it installs, so a
renamed or deleted function would break every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("qual", tracing.SPANS + tracing.COUNTED + tracing.CHECK_SPANS)
def test_traced_function_resolves(qual):
    mod_name, func = qual.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    assert callable(getattr(module, func, None)), qual
