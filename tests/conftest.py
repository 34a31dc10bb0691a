import functools
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import vdwshock
from vdwshock import reports
from vdwshock.thermo import GasModel, reference_constants

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# every module of the package, subpackages included, with each renderer bound in reports
# (a lookup there loads its module), so a patch reaches every binding of a name
for _command in reports.DATA_COMMANDS:
    getattr(reports, f"render_{_command}")
MODULES = [vdwshock] + [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(vdwshock.__path__, "vdwshock.")
]


def bindings(name):
    """The vdwshock modules that bind name, in MODULES order."""
    return [m for m in MODULES if name in vars(m)]


@functools.cache
def perfbench(name):
    """The benchmark's module perfbench/<name>.py, loaded once from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def count_calls(monkeypatch):
    """count(names) -> {name: calls since}, seen in every vdwshock module that binds the name."""

    def count(names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            bound = bindings(name)
            original = getattr(bound[0], name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in bound:
                monkeypatch.setattr(module, name, counted)
        return counts

    return count


@pytest.fixture
def ideal_gas():
    return GasModel(gamma=1.4, btilde=0.0)


@pytest.fixture
def covolume_gas():
    return GasModel(gamma=1.4, btilde=0.3)


@pytest.fixture
def ideal_ref(ideal_gas):
    return reference_constants(1.0, 1.0, ideal_gas)


@pytest.fixture
def covolume_ref(covolume_gas):
    return reference_constants(1.0, 1.0, covolume_gas)
