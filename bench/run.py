"""hydrokite benchmark runner.

    python3 bench/run.py --workload {flight,pareto,dual,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each repetition is a fresh interpreter
(``worker.py``) pinned to one BLAS thread, so every repetition starts with
cold caches and pays the set-up a user pays.  Repetitions run one at a
time for ``--seconds`` seconds; a repetition starts only while the previous
one's duration still fits in the remaining time, and at least one always
runs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the measured
call, median repetition), ``setup_s`` (interpreter start to the measured
call, median of at least SETUP_SAMPLES fresh interpreters), ``peak_rss_mb``
(median) and ``ops_ok_frac`` (operations that did not fail over operations
attempted).  ``wall_s`` and ``setup_s`` are times at the reference host
speed (``hostspeed.py``); the raw wall times are in the manifest.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` from the median traced repetition,
plus the tracing overhead against the untraced ones.

Every metric is printed with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when a correctness gate fails, and 2 when the benchmark cannot
run at all (for example without ``src/hydrokite``), in which case no
result is printed.  A manifest of every repetition, with the machine, the
git revision and the library versions, is written under ``.bench_runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_runs")
WORKLOAD_NAMES = ("flight", "pareto", "dual")
SETUP_SAMPLES = 7
# a run must end within 180 s; leave room for the report
DEADLINE_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("ops_ok_frac", "frac"))


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker; (its report, seconds from spawn to exit)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before a repetition could start")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t_spawn = time.time()
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition exceeded the time limit: {' '.join(args)}") from exc
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {' '.join(args)}")
    report = json.loads(lines[-1])
    report["setup_raw_s"] = report["t_call"] - t_spawn
    report["setup_s"] = report["setup_raw_s"]
    if "setup_speed" in report:
        report["setup_s"] = (report["setup_raw_s"] - report["setup_lost_s"]) * report["setup_speed"]
    return report, elapsed


def timed(reps: list[dict], key: str = "wall_s") -> list[float]:
    """The times of the repetitions whose operations all succeeded, when
    there are any: a failed operation may stop early."""
    return [r[key] for r in ([r for r in reps if not r["failed"]] or reps)]


def middle(reps: list[dict], key: str) -> dict:
    """The repetition at the (lower) median time."""
    ordered = sorted([r for r in reps if not r["failed"]] or reps, key=lambda r: r[key])
    return ordered[(len(ordered) - 1) // 2]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """All repetitions of one workload; the per-workload result dict."""
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.json")
    kinds = ("plain", "traced") if trace else ("plain",)
    reps: dict[str, list[dict]] = {k: [] for k in kinds}
    last: dict[str, float] = {}
    start = time.monotonic()
    turn = 0
    while True:
        kind = kinds[turn % len(kinds)]
        needed = any(not reps[k] for k in kinds)
        used = time.monotonic() - start
        if not needed and used + last.get(kind, 0.0) > seconds:
            break
        args = [name, str(seed)]
        if kind == "traced":
            args += ["--trace", "--spans", spans_path]
        report, elapsed = spawn(args, deadline)
        reps[kind].append(report)
        last[kind] = elapsed
        turn += 1

    setups = [r["setup_s"] for r in reps["plain"]]
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            report, _ = spawn([name, str(seed), "--setup-only"], deadline)
            setups.append(report["setup_s"])

    all_reps = [r for k in kinds for r in reps[k]]
    gate_failures = sorted({g for r in all_reps for g in r["gate_failures"]})
    missing = sorted({m for r in reps.get("traced", []) for m in r["missing_spans"]})
    if missing:
        gate_failures.append(f"traced layers saw no call: {', '.join(missing)}")
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)
    plain = reps["plain"]
    # wall_s is at the reference host speed (hostspeed.py); the median
    # keeps one repetition that the scaling misjudged from moving it
    wall = statistics.median(timed(plain))

    if trace:
        from tracing import per_layer_metrics

        units = {m: u for m, u, _ in per_layer_metrics()}
        # traced repetitions do not sample the host speed, so the overhead
        # compares raw wall times
        values = dict(middle(reps["traced"], "wall_raw_s")["layers"])
        values["trace.overhead_frac"] = (
            statistics.median(timed(reps["traced"], "wall_raw_s"))
            / statistics.median(timed(plain, "wall_raw_s")) - 1.0)
        values["flight.sim_rate"] = middle(plain, "wall_s")["sim_time"] / wall
    else:
        units = dict(END_TO_END)
        values = {"wall_s": wall, "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
                  "ops_ok_frac": 1.0 - failed / attempted}
    metrics = {m: {"value": values[m], "unit": units[m]} for m in units}

    manifest = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                "machine": machine_info(), "versions": plain[0]["versions"],
                "setup_samples_s": setups, "repetitions": all_reps,
                "gate_failures": gate_failures, "metrics": metrics}
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=1)
    return {"correct": not gate_failures, "attempted": attempted, "failed": failed,
            "metrics": metrics, "gate_failures": gate_failures,
            "errors": sorted({e for r in all_reps for e in r["errors"]}),
            "reps": {k: [round(r["wall_raw_s"], 3) for r in v] for k, v in reps.items()},
            "manifest": path}


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "platform": platform.platform(), "git_rev": git_rev()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def print_report(name: str, result: dict, trace: bool) -> None:
    print(f"== {name}: raw wall time per repetition {result['reps']}, "
          f"attempted {result['attempted']}, failed {result['failed']}")
    for msg in result["errors"]:
        print(f"   failed operation: {msg}")
    metrics = dict(result["metrics"])
    if trace:
        from tracing import LAYERS, STATS

        # layers that saw no call on this workload report zeros; the table
        # lists the others, with each one's share of the total self time
        total = sum(metrics[f"{layer.name}.self_s"]["value"] for layer in LAYERS)
        print(f"   {'layer':38s}" + "".join(
            f" {stat + ' [' + unit + ']':>16s}" for stat, unit, _ in STATS) + "  self share")
        for layer in LAYERS:
            row = [metrics.pop(f"{layer.name}.{stat}")["value"] for stat, _, _ in STATS]
            if row[0]:
                print(f"   {layer.name:38s} {row[0]:16.0f} {row[1]:16.1f}"
                      f" {row[2]:16.1f} {row[3]:16.4f}  {row[3] / total:10.1%}")
    for key, entry in metrics.items():
        print(f"   {key} = {entry['value']:.6g} {entry['unit']}")
    for msg in result["gate_failures"]:
        print(f"   GATE FAILED: {msg}")
    print(f"   manifest: {os.path.relpath(result['manifest'], ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    try:
        if not os.path.isdir(os.path.join(SRC, "hydrokite")):
            raise BenchError(f"no hydrokite package under {SRC}; "
                             "run from the root of a checkout")
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), deadline)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    for name, result in results.items():
        print_report(name, result, bool(args.trace))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
