"""Host speed sampled while a repetition runs, to time it at a fixed speed.

The benchmark's 2-vCPU virtual machine shares its host with other tenants,
and the host runs the same single-threaded code at speeds up to 2x apart,
switching between them in stretches of seconds to minutes: a fixed Python
loop takes about 120 ms in one stretch and about 215 ms in the next.  A
plain wall time follows those stretches more than the program.

``HostSpeed`` samples the speed throughout a repetition: at a fixed
interval of wall time (``SETUP_INTERVAL_S`` during set-up, which is short,
``CALL_INTERVAL_S`` during the measured call) a SIGALRM handler times a
fixed probe between two bytecodes of the running program.  Over a window,
the program's time at the reference speed is its wall time, less the time
spent probing, times the mean over the window's samples of (the probe's
reference time / its measured time).  The samples are evenly spaced in wall time, so that
mean is the window's average speed relative to the reference.  Each
reference time is the probe's time in the host's fast stretches, so on a
quiet host the reference time is the wall time.

The host slows interpreter-bound code more than vectorised numpy, so the
probe follows the kind of work being timed.  There are two probes:

* ``scalar``: a Python loop of integer arithmetic and dict stores, for the
  interpreter (imports, ``dynsim``'s small-vector steps, the GA);
* ``vector``: the strip sums of a wing section over 2000 stations, for
  ``wingstruct.SectionIntegrator.properties``.

A mix weights them, and each sample runs every probe in the mix; the
speed is the weighted mean of the probes' speeds.  A workload weights
``vector`` by the traced self-time share of ``properties`` in its call.

Measured on the benchmark's machine, timing each workload's call
repeatedly for three to four minutes, the coefficient of variation of the
call's time went from 9% to 2% on ``flight`` (scalar probe) and from 7% to
2% on ``pareto`` (vector).
"""
from __future__ import annotations

import math
import signal
import time

import numpy as np

SETUP_INTERVAL_S = 0.01
CALL_INTERVAL_S = 0.04

# the vector probe's section: a symmetric 12% four-digit foil, unit chord
_EDGES = 0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, 2001)))
_X = 0.5 * (_EDGES[:-1] + _EDGES[1:])
_DX = np.diff(_EDGES)
_Y_UP = 0.6 * (0.2969 * np.sqrt(_X) - 0.126 * _X - 0.3516 * _X**2
               + 0.2843 * _X**3 - 0.1015 * _X**4)
_Y_LO = -_Y_UP


def scalar_probe() -> None:
    x = 0
    table = {}
    for k in range(1500):
        x += k * k % 7
        table[k % 37] = (k, x * 0.5)


def vector_probe() -> None:
    depth = _Y_UP - _Y_LO
    band = 0.02 * depth
    solid = ((_X >= 0.2) & (_X <= 0.3)) | (band + band >= depth)
    b1 = np.where(solid, _Y_UP, _Y_LO + band)
    a2 = np.where(solid, _Y_UP, _Y_UP - band)
    np.sum(((b1 - _Y_LO) + (_Y_UP - a2)) * _DX)
    np.sum(((b1**2 - _Y_LO**2) + (_Y_UP**2 - a2**2)) * 0.5 * _DX)
    np.sum(((b1**3 - _Y_LO**3) + (_Y_UP**3 - a2**3)) / 3.0 * _DX)


# kind -> (probe, its time in the host's fast stretches, s)
PROBES = {"scalar": (scalar_probe, 250e-6), "vector": (vector_probe, 600e-6)}


class HostSpeed:
    """Samples a probe mix at a fixed interval while started."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []   # (start, seconds, speed)
        self._mix: list[tuple[object, float, float]] = []     # (probe, reference, weight)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        took = speed = 0.0
        for probe, reference, weight in self._mix:
            t0 = time.perf_counter()
            probe()
            t = time.perf_counter() - t0
            took += t
            speed += weight * reference / t
        self.samples.append((start, took, speed))

    def start(self, mix: dict[str, float], interval: float) -> None:
        """Sample the probes of ``mix`` (kind -> weight, summing to 1) every
        ``interval`` seconds from now on; a second call switches mix and
        interval."""
        self._mix = [(*PROBES[kind], weight) for kind, weight in mix.items()]
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds spent probing, mean speed relative to the reference) over
        the perf_counter window [t0, t1)."""
        inside = [(took, speed) for start, took, speed in self.samples if t0 <= start < t1]
        if not inside:
            raise RuntimeError("no host speed sample fell in the window")
        return sum(t for t, _ in inside), sum(s for _, s in inside) / len(inside)
