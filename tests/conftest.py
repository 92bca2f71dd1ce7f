import contextlib
import signal

import pytest


class Hung(Exception):
    """A call outlived its alarm.  Not an OSError, so cli_main cannot turn
    it into an exit code."""


@pytest.fixture
def alarm():
    """``with alarm(seconds):`` raises Hung in a block still running after
    ``seconds``, so a call that never returns fails instead of hanging."""
    @contextlib.contextmanager
    def within(seconds: float):
        def expire(signum, frame):
            raise Hung(f"still running after {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return within
