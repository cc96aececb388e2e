"""Host-speed probe: a fixed pure-Python kernel run around and inside pairs.

The benchmark's host shares its CPUs with others, and its speed drifts
by tens of percent within seconds.  After each pair (and each set-up
process) :func:`speed_factor` runs a fixed kernel for a slice of time
proportional to the measured work, and measures how fast the host ran
it.  While a pair runs, :func:`sampled` also interrupts it every
:data:`SAMPLE_PERIOD_S` for a short slice, so a pair of several seconds
is priced at the speed the host had while it ran, not only at its ends;
the slices' own time is taken out of the pair's.  A pair's *normalized*
seconds are its wall seconds scaled by the mean speed of its slices,
relative to :data:`REFERENCE_RATE` - the seconds the pair would have
taken at the reference speed.
"""

from __future__ import annotations

import contextlib
import signal
import time

#: Kernel units per second on an unloaded 2-CPU x86-64 cloud VM
#: (CPython 3.11); a fixed scale, so normalized seconds read close to
#: wall seconds on such a host.
REFERENCE_RATE = 3800.0
#: Probe time per second of measured work.
SHARE = 0.1
#: Shortest slice: long enough that a short pair's speed sample is not
#: dominated by the host's millisecond jitter.
MIN_SLICE_S = 0.02
#: Wall seconds between the slices taken inside a pair; each of them
#: lasts ``SHARE`` of this period.
SAMPLE_PERIOD_S = 0.1

_TABLE = {i: (i * 31) % 1009 for i in range(5000)}


def kernel() -> int:
    """One unit: dictionary lookups, integer arithmetic, a small sort."""
    total = 0
    for key in range(0, 5000, 3):
        total += _TABLE[(key * 7) % 5000]
    return total + sorted(range(total % 97, 200, 3))[-1]


def run_slice(budget: float) -> tuple[float, float]:
    """Run the kernel for ``budget`` seconds; (seconds taken, rate over
    the reference rate).  The rate is below 1 when the host ran slow."""
    units = 0
    started = time.perf_counter()
    while True:
        kernel()
        units += 1
        elapsed = time.perf_counter() - started
        if elapsed >= budget:
            return elapsed, units / elapsed / REFERENCE_RATE


def speed_factor(work_seconds: float) -> tuple[float, float]:
    """One slice after ``work_seconds`` of measured work (see
    :func:`run_slice`)."""
    return run_slice(max(MIN_SLICE_S, SHARE * work_seconds))


@contextlib.contextmanager
def sampled():
    """Slices every :data:`SAMPLE_PERIOD_S` of wall time while the body
    runs, from a ``SIGALRM`` timer; yields the list that receives each
    slice's (seconds, rate)."""
    samples: list[tuple[float, float]] = []

    def on_alarm(signum, frame):
        samples.append(run_slice(SHARE * SAMPLE_PERIOD_S))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
