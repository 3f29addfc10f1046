"""Host-speed probe: a fixed reference loop timed again and again during a run.

On a shared host the speed of one vCPU drifts by up to about 2x, in
phases from seconds to minutes, and the other vCPU does not drift with
it.  So the speed has to be sampled on the same vCPU, during the timed
run itself.  A ``Probe`` fires a timer signal every ``INTERVAL_S`` seconds;
the handler times a short, fixed loop.
The mean loop time says how fast the host ran during the run, and the
sum says how much of the run's wall time the probe took.

The loop is plain Python (dict updates and a sort).  Of the loops tried
(that one, small and mid-size numpy calls, dense mat-vec products), it
tracked the speed of all four workloads best.  It uses no ``branchflow``
code, so no change to the program under test moves it.
"""

from __future__ import annotations

import signal
import time


def reference_loop() -> None:
    d: dict[int, float] = {}
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0.0) + i * 0.5
    sorted(d.items(), key=lambda kv: kv[1])


INTERVAL_S = 0.02


class Probe:
    """Times ``reference_loop`` on every SIGALRM between start() and stop()."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def time_between(self, t0: float, t1: float) -> float:
        """Seconds the probe took between perf_counter values t0 and t1."""
        return sum(d for s, d in zip(self.starts, self.times) if t0 <= s < t1)

    def start(self):
        reference_loop()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:
            # a run shorter than one interval: take one sample now
            self._handler(None, None)
