"""Importing the package loads no optimization library.

The design workloads start at the NumPy floor only while no ``hydrokite``
module imports scipy: its import alone tripled their start-up time and
doubled their peak memory.  The check runs in a fresh interpreter, because
the test process itself imports scipy as a reference implementation.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_catalog_imports_no_design_search_module():
    # the flight workload loads a catalog kite and never needs the config
    # schema, which pulls in the whole design search
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import json, sys\nimport hydrokite.catalog\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('hydrokite.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "hydrokite.catalog" in loaded
    for name in ("config", "codesign", "effmap", "ilc"):
        assert f"hydrokite.{name}" not in loaded
