"""Timing corrected for the speed of a shared host.

The baseline machine shares its cores with other guests.  Its speed
changes by up to 2x within seconds and drifts over minutes, and steal time
stays near zero, so wall time and CPU time both drift (see the README).
Each timed call is therefore corrected by readings of a fixed
pure-Python kernel taken around it and, where possible, during it.

Run as a script, it starts a module as ``__main__`` in a fresh process
and samples the host's pace inside that process:

    python3 perfbench/pace.py READINGS.json MODULE [ARG ...]

It writes the readings and the time the sampling took to READINGS.json
and exits with the module's exit code.  This module imports only the
standard library, so it adds little to the start of that process.
"""

from __future__ import annotations

import signal
import sys
import time

#: Wall seconds between two readings of the host's speed during a call.
PACE_INTERVAL_S = 0.1

#: host_pace() at the reference speed.  Corrected times are seconds at
#: the speed where a reading takes this long; on the baseline machine it
#: is about the median reading.
KERNEL_S = 1.0e-3


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python kernel: 2x2 float products, dict stores."""
    a, b, c, d = 1.0001, 0.0002, 0.0003, 0.9999
    table = {}
    start = time.perf_counter()
    for _ in range(3000):
        a, b, c, d = (
            a * 1.0001 + b * 0.0002,
            a * 0.0003 + b * 0.9999,
            c * 1.0001 + d * 0.0002,
            c * 0.0003 + d * 0.9999,
        )
    for k in range(1500):
        table[k, k & 7] = a * k
    return time.perf_counter() - start


def host_pace() -> float:
    """The host's current speed, as the faster of two reference_kernel passes."""
    return min(reference_kernel(), reference_kernel())


class Sampler:
    """Reads host_pace() every PACE_INTERVAL_S from a SIGALRM handler.

    Python runs the handler between bytecodes, so a long call into C code
    defers it.  `spent` is the wall time the handler took.
    """

    def __init__(self):
        self.readings, self.spent = [], 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.readings.append(host_pace())
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


class Timed:
    """Times a block and corrects its wall time for the host's speed.

    host_pace() is read right before and right after the block.  When the
    block's work runs in this process (`local`), a Sampler also reads it
    during the block.  Work in another process can add its own readings
    with merge().  The corrected seconds are the wall time, less the
    sampling time, scaled by KERNEL_S over the mean reading.  Without
    `pace`, they are the wall time.
    """

    def __init__(self, pace: bool = True, local: bool = True):
        self.pace, self.local = pace, local
        self.sampler = Sampler()

    def __enter__(self):
        if self.pace:
            self.sampler.readings.append(host_pace())
            if self.local:
                self.sampler.start()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.pace and self.local:
            self.sampler.stop()
        self.wall = time.perf_counter() - self.start
        if self.pace:
            self.sampler.readings.append(host_pace())
        return False

    def merge(self, readings: list, spent: float):
        """Add readings taken, and sampling time spent, inside the block."""
        self.sampler.readings.extend(readings)
        self.sampler.spent += spent

    @property
    def seconds(self) -> float:
        if not self.pace:
            return self.wall
        readings = self.sampler.readings
        mean = sum(readings) / len(readings)
        return (self.wall - self.sampler.spent) * KERNEL_S / mean


def main() -> int:
    import json
    import runpy

    path, module = sys.argv[1], sys.argv[2]
    sys.argv = [module] + sys.argv[3:]
    sampler = Sampler()
    sampler.start()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sampler.stop()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"readings": sampler.readings, "spent": sampler.spent}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
