"""The benchmark's layer table still matches the package.

``bench/tracing.py`` wraps each traced function in every module that looks
it up by name, and installing fails when a listed function or lookup site
is gone.  Installing it here makes a rename or a dropped import fail the
package's own test run, not only ``bench/run.py --trace 1``.
"""
import importlib.util
import sys
from pathlib import Path

from hydrokite import codesign

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_layer():
    tracing = load_tracing()
    original = codesign.evaluate_design
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert codesign.evaluate_design.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert codesign.evaluate_design is original
