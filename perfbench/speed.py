"""Machine-speed sampling for the hampack benchmark (standard library only).

A shared machine runs a process at a speed that swings by tens of percent
within seconds.  `SpeedSampler` times `reference_unit`, a fixed pure-Python
computation, every SAMPLE_INTERVAL_S of wall time while it is active.  The
samples are taken in the measured thread, between the bytecodes of the work
being measured, so they see the speed that work saw.  A time divided by the
mean sample is then comparable across runs made at different moments.
"""
from __future__ import annotations

import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.05
# The nominal machine speed: the one at which `reference_unit` takes this long
# (its typical time on a 2-vCPU Xeon virtual machine).
NOMINAL_UNIT_S = 3e-4
REF_TRIPLES = [(i % 89, (i * 7) % 97, (i * 13) % 83) for i in range(400)]
REF_INDEX = frozenset(frozenset(t) for t in REF_TRIPLES[::2])


def nominal_seconds(wall_s: float, unit_s: float) -> float:
    """A wall time measured at speed unit `unit_s`, scaled to the nominal speed."""
    return wall_s / unit_s * NOMINAL_UNIT_S


def reference_unit() -> None:
    """Fixed pure-Python work (about 0.3 ms) with the operation mix of
    hampack's hot loops: small frozensets, sorting and dict lookups.  It keeps
    nothing, so its time does not depend on the heap's state."""
    for t in REF_TRIPLES:
        if frozenset(t) in REF_INDEX:
            tuple(sorted(t))


class SpeedSampler:
    """Samples `reference_unit` on SIGALRM while active; the sampling costs
    about 1% of the measured work."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()  # so that even a very short span has a sample

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference_unit()
        self.samples.append(time.perf_counter() - t0)

    def unit(self) -> float:
        """Mean reference time over the active span, in seconds."""
        return statistics.fmean(self.samples)
