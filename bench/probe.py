"""Machine-speed probe for scaling timed items to a reference speed.

On small shared machines the speed of the whole guest switches every few
seconds between states about 1.6x apart, which moved the median op time of
back-to-back runs by 20-40%.  While a ``Probe`` is entered, a SIGALRM every
PERIOD_S runs a fixed Python loop and records its start and duration.  The
handler runs in the main thread between bytecodes, so it interrupts the
item being timed; ``timed`` takes the samples' time out of the item's and
scales the rest by REFERENCE_S over their mean duration.

Only the standard library is used, so that a cold process can import this
before it imports anything else.
"""

import signal
import time

PERIOD_S = 0.05           # one speed sample per 50 ms of a timed item
LOOP = 20_000             # iterations of the sampled Python loop
REFERENCE_S = 0.0012      # the loop's time at the reference speed


class Probe:
    """Speed samples taken while entered; ``timed`` scales an item."""

    def __init__(self):
        self.samples: list = []          # (start, seconds)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()                   # so that there is always one
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self.previous)

    def _sample(self, *_):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(LOOP):
            acc += i * 0.5
        self.samples.append((t0, time.perf_counter() - t0))

    def timed(self, t0: float, t1: float) -> tuple:
        """Raw and scaled seconds of an item that ran from t0 to t1, with
        the samples taken inside it taken out."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        raw = (t1 - t0) - sum(inside)
        # an item shorter than a period, or a process that died unsampled
        inside = inside or [d for _, d in self.samples[-5:]] or [REFERENCE_S]
        return raw, raw * REFERENCE_S * len(inside) / sum(inside)
