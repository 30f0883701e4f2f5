"""Which modules an import loads.

The design workloads start at the NumPy floor only while no ``hydrokite``
module imports scipy: its import alone tripled their start-up time and
doubled their peak memory.  Every module loaded is start-up time, so each
workload also loads only the layers it runs: flying a catalog kite loads
no design search, and the design search loads neither the flight
simulator nor the YAML reader.  The checks run in a fresh interpreter,
because the test process itself imports scipy as a reference
implementation and every layer besides.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hydrokite

SRC = Path(hydrokite.__file__).resolve().parent.parent

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import hydrokite
names = [m.name for m in pkgutil.walk_packages(hydrokite.__path__, "hydrokite.")]
for name in names:
    importlib.import_module(name)
print(json.dumps({"imported": names,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_no_module_imports_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.splitlines()[-1])
    assert "hydrokite.codesign" in report["imported"]
    assert "hydrokite.dynsim.sim" in report["imported"]
    assert report["scipy"] == []


# (module imported, modules it must not load: each name and its submodules)
FOOTPRINTS = [
    # the flight workload loads a catalog kite and never needs the config
    # schema, which pulls in the whole design search
    ("hydrokite.catalog", ("hydrokite.config", "hydrokite.codesign",
                           "hydrokite.effmap", "hydrokite.ilc")),
    # the design search evaluates the fitted eta surface and never flies
    # a kite or reads a YAML file
    ("hydrokite.codesign", ("hydrokite.dynsim", "hydrokite.ilc",
                            "hydrokite.catalog", "hydrokite.config", "yaml")),
]


@pytest.mark.parametrize("module, forbidden", FOOTPRINTS,
                         ids=[module for module, _ in FOOTPRINTS])
def test_import_loads_no_forbidden_module(module, forbidden):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (f"import json, sys\nimport {module}\n"
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert module in loaded
    assert [m for m in loaded
            if any(m == f or m.startswith(f + ".") for f in forbidden)] == []
