import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import orbitact

MODULES = ["orbitact"] + [f"orbitact.{info.name}" for info in pkgutil.iter_modules(orbitact.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


SERIAL_SEARCH = """
import sys

import orbitact
from conftest import make_spec

result = orbitact.multistart(make_spec(), [1], 2, harmonics=4, workers=1)
assert result.n_started == 2
loaded = [m for m in ("concurrent.futures", "multiprocessing", "queue", "json", "orbitact.runconfig") if m in sys.modules]
assert loaded == [], loaded
assert orbitact.RunConfig is orbitact.runconfig.RunConfig
try:
    orbitact.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("orbitact.no_such_name resolved")
"""


def test_serial_search_loads_no_pool_or_config_modules():
    # a fresh interpreter, since this suite's own imports already hold those modules
    tests_dir = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])}
    run = subprocess.run(
        [sys.executable, "-c", SERIAL_SEARCH], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
