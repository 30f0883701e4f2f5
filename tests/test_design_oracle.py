"""Design-search oracle: the equivalence guard for the design layers.

Pareto points from ``fully_nested`` and ``nested_sequential`` and reduced
dual-objective GA runs, all on the default ``DesignContext``, must match the
committed reference to rtol 1e-12.  A case that fails today is recorded as
an expected outcome: it must raise the same exception type with the same
message.

Regenerate the reference only for a change that is meant to alter design
results, and say so in the change log:

    PYTHONPATH=src python tests/test_design_oracle.py
"""
from pathlib import Path

import numpy as np
import pytest

from hydrokite.codesign import (
    DesignContext, GAConfig, dual_front_text, front_text, fully_nested,
    nested_sequential, simultaneous_ga,
)
from hydrokite.errors import HydrokiteError

ORACLE_FILE = Path(__file__).parent / "data" / "design_oracle.txt"
RTOL = 1e-12

FULLY_NESTED_KW = (400, 450, 500, 550, 600)
SEQUENTIAL_KW = (400, 600)
SURROGATES = ("span", "wing_volume")
GA_WEIGHT = 16.0
GA_P_MIN = 350e3
GA_SEEDS = (0, 1, 2, 3)


def _cases() -> dict:
    """Case name -> function returning the case's outcome text."""
    cases = {}
    for kw in FULLY_NESTED_KW:
        cases[f"fully_nested {kw} kW"] = (
            lambda ctx, p=kw * 1e3: front_text([fully_nested(p, ctx)]))
    for surrogate in SURROGATES:
        for kw in SEQUENTIAL_KW:
            cases[f"nested_sequential[{surrogate}] {kw} kW"] = (
                lambda ctx, p=kw * 1e3, s=surrogate:
                front_text([nested_sequential(p, s, ctx)]))
    for seed in GA_SEEDS:
        cfg = GAConfig(population=60, elite=6, generations=8, polish=True,
                       seed=seed)
        cases[f"simultaneous_ga seed {seed}"] = (
            lambda ctx, cfg=cfg:
            dual_front_text([simultaneous_ga(GA_WEIGHT, GA_P_MIN, ctx, cfg)]))
    return cases


CASES = _cases()


def outcome(name: str, ctx: DesignContext) -> str:
    """The case's front text, or the package error it raises."""
    try:
        return CASES[name](ctx)
    except HydrokiteError as exc:
        return f"raises {type(exc).__name__}: {exc}\n"


def read_reference() -> dict:
    blocks, name = {}, None
    for line in ORACLE_FILE.read_text().splitlines(keepends=True):
        if line.startswith("== "):
            name = line[3:].strip()
            blocks[name] = ""
        else:
            blocks[name] += line
    return blocks


def write_reference() -> None:
    ctx = DesignContext()
    ORACLE_FILE.parent.mkdir(exist_ok=True)
    ORACLE_FILE.write_text("".join(
        f"== {name}\n{outcome(name, ctx)}" for name in CASES))


@pytest.fixture(scope="module")
def reference():
    return read_reference()


def test_oracle_lists_every_case(reference):
    assert list(reference) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_design_search_matches_oracle(name, reference):
    got, want = outcome(name, DesignContext()), reference[name]
    if want.startswith("raises "):
        assert got == want
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0]    # column header
    np.testing.assert_allclose(
        np.array([line.split("\t") for line in got_lines[1:]], dtype=float),
        np.array([line.split("\t") for line in want_lines[1:]], dtype=float),
        rtol=RTOL, atol=0, err_msg=f"{name}: {want_lines[0]}")


if __name__ == "__main__":
    write_reference()
