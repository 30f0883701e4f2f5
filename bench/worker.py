"""One cold benchmark repetition in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED [--trace] [--setup-only] [--spans PATH]

Imports hydrokite, builds the workload's inputs and set-up objects, times
the measured call and checks its outputs.  Prints one JSON line.  The
interpreter is fresh so that the package's caches (the glide-ratio LRU
cache and the section integrator table) start cold, as they do for a user.
Untraced repetitions sample the host's speed from the first line on
(``hostspeed.py``) and report the set-up and the measured call also at the
reference speed, probing set-up with the scalar probe and the call with
the workload's probe mix.  ``run.py`` starts this script; it is not meant
to be run by hand.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import time

from hostspeed import CALL_INTERVAL_S, SETUP_INTERVAL_S, HostSpeed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    # spans would count the probe's time, so traced repetitions do not sample
    speed = None
    if not args.trace:
        speed = HostSpeed()
        speed.start({"scalar": 1.0}, SETUP_INTERVAL_S)
    t_sampling = time.perf_counter()

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    t_call = time.time()
    start = time.perf_counter()
    report = {"t_call": t_call}
    if speed is not None:
        # run.py scales set-up from its own spawn time: (t_call - spawn - lost) * speed
        report["setup_lost_s"], report["setup_speed"] = speed.window(t_sampling, start)
    if args.setup_only:
        if speed is not None:
            speed.stop()
        print(json.dumps(report))
        return

    if speed is not None:
        speed.start(workload.probe, CALL_INTERVAL_S)
    outcome = workload.run()
    end = time.perf_counter()
    report["wall_raw_s"] = end - start
    report["wall_s"] = None
    if speed is not None:
        speed.stop()
        lost, factor = speed.window(start, end)
        report["wall_s"] = (end - start - lost) * factor
        report["call_speed"] = factor

    report.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "errors": outcome.errors, "sim_time": outcome.sim_time})
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.summary()
        report["missing_spans"] = tracer.missing(args.workload)
        if args.spans:
            tracer.write(args.spans)
    report["gate_failures"] = workload.check(outcome, args.seed)

    import numpy
    import scipy
    report["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
