"""Self-check of the benchmark itself; run from the root of a checkout:

    python3 bench/check.py

Checks that BENCHMARK.json keeps the benchmark contract and agrees with the
metric lists in ``run.py`` and ``tracing.py``; that the span arithmetic
(self time, tail percentile) and the host-speed window are right on
hand-built samples, and that the host-speed sampler samples; that
installing the tracer replaces every lookup site and uninstalling restores
it; and that run.py fails without printing a result in a directory
that holds only the benchmark.  It runs no workload and takes a few
seconds.  The name avoids ``test_*.py`` so the package's test run does not
collect it.
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def check_contract(errors: list[str]) -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.getsize(path) > 64 * 1024:
        errors.append("BENCHMARK.json exceeds 64 KiB")
    with open(path) as handle:
        doc = json.load(handle)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        errors.append(f"top-level keys {sorted(doc)} != {sorted(keys)}")
        return
    if not 1 <= len(doc["paths"]) <= 16:
        errors.append("paths: 1 to 16 entries")
    for p in doc["paths"]:
        if not PATH.match(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
    cmd = doc["command"]
    if not 1 <= len(cmd) <= 32 or any(len(c) > 200 for c in cmd):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    for arg in cmd[1:]:
        if "/" in arg and not any(arg.startswith(p + "/") for p in doc["paths"]):
            errors.append(f"command names {arg!r} outside paths")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")

    names = set()

    def entry(item, fields, where):
        if set(item) != set(fields):
            errors.append(f"{where} {item.get('name')!r}: keys {sorted(item)}")
        name = item.get("name", "")
        if not NAME.match(name) or name in names:
            errors.append(f"{where}: bad or repeated name {name!r}")
        names.add(name)
        if "unit" in fields and not UNIT.match(item.get("unit", "")):
            errors.append(f"{where} {name}: bad unit {item.get('unit')!r}")
        if "better" in fields and item.get("better") not in ("lower", "higher"):
            errors.append(f"{where} {name}: better must be lower or higher")

    if not 2 <= len(doc["workloads"]) <= 8:
        errors.append("workloads: 2 to 8")
    for w in doc["workloads"]:
        entry(w, ("name", "why"), "workload")
        if len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w['name']}: why must be one line of <= 200 characters")
    if [w["name"] for w in doc["workloads"]] != list(run.WORKLOAD_NAMES):
        errors.append("workloads differ from run.WORKLOAD_NAMES")

    e2e = doc["end_to_end"]
    for m in e2e:
        entry(m, ("name", "unit", "better", "bound"), "end_to_end")
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m['name']}: bound must be in (0, 0.25]")
    if [(m["name"], m["unit"]) for m in e2e] != list(run.END_TO_END):
        errors.append("end_to_end differs from run.END_TO_END")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        errors.append("setup_s must have the largest bound")

    for m in doc["per_layer"]:
        entry(m, ("name", "unit", "better"), "per_layer")
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    if listed != tracing.per_layer_metrics():
        errors.append("per_layer differs from tracing.per_layer_metrics()")
    if not 1 <= len(listed) <= 128:
        errors.append("per_layer: 1 to 128 metrics")


def check_span_math(errors: list[str]) -> None:
    tracer = tracing.Tracer()
    # root 0 (0..10) with children 1 (1..4) and 2 (5..9); 2 has child 3 (6..7)
    tracer.spans = [(21, 0.0, 10.0, -1), (11, 1.0, 4.0, 0), (11, 5.0, 9.0, 0),
                    (10, 6.0, 7.0, 2)]
    self_s = tracer._self_times()
    if list(self_s) != [3.0, 3.0, 3.0, 1.0]:
        errors.append(f"self times {list(self_s)} != [3, 3, 3, 1]")
    for n, want in ((19, None), (20, 50.0), (100, 90.0), (1000, 99.0),
                    (20656, 99.9), (100000, 99.99)):
        if tracing.tail_percentile(n) != want:
            errors.append(f"tail percentile for n={n}: {tracing.tail_percentile(n)} != {want}")


def check_host_speed(errors: list[str]) -> None:
    speed = hostspeed.HostSpeed()
    speed.samples = [(0.5, 0.001, 1.0), (1.5, 0.002, 0.5), (2.5, 0.003, 0.75)]
    if speed.window(1.0, 3.0) != (0.005, 0.625):
        errors.append(f"host speed window {speed.window(1.0, 3.0)} != (0.005, 0.625)")
    speed = hostspeed.HostSpeed()
    speed.start({"scalar": 0.5, "vector": 0.5}, hostspeed.CALL_INTERVAL_S)
    try:
        end = time.perf_counter() + 10 * hostspeed.CALL_INTERVAL_S
        while time.perf_counter() < end:
            pass
    finally:
        speed.stop()
    if not 5 <= len(speed.samples) <= 11:
        errors.append(f"{len(speed.samples)} host speed samples in 10 intervals")


def check_install(errors: list[str]) -> None:
    import importlib

    tracer = tracing.Tracer()
    before = {}
    for layer in tracing.LAYERS:
        for site in layer.sites:
            mod = importlib.import_module(site)
            before[(site, layer.attr)] = getattr(mod, layer.attr)
    tracer.install()
    try:
        for (site, attr), fn in before.items():
            now = getattr(importlib.import_module(site), attr)
            if now is fn or getattr(now, "__wrapped__", None) is not fn:
                errors.append(f"{site}.{attr} was not wrapped")
    finally:
        tracer.uninstall()
    for (site, attr), fn in before.items():
        if getattr(importlib.import_module(site), attr) is not fn:
            errors.append(f"{site}.{attr} was not restored")


def check_bare_directory(errors: list[str]) -> None:
    bare = os.path.join(ROOT, ".bench_runs", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "flight",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append("run.py did not fail cleanly without src/hydrokite")


def main() -> int:
    errors: list[str] = []
    for check in (check_contract, check_span_math, check_host_speed, check_install,
                  check_bare_directory):
        before = len(errors)
        check(errors)
        print(f"{check.__name__}: {'ok' if len(errors) == before else 'FAILED'}")
    for msg in errors:
        print(f"  {msg}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
