"""A wall-clock budget for tests of routes that once ran for minutes."""

import contextlib
import signal
import sys

import pytest


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs longer than `seconds`."""
    if not hasattr(signal, "setitimer"):
        pytest.skip("needs POSIX interval timers")

    def expire(*_):
        raise TimeoutError("still running after %s s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@contextlib.contextmanager
def untraced():
    """Suspend any line tracer (the ``-p linecov`` plugin, which makes the
    package about three times slower) for the body, so that a wall-clock
    budget inside it holds in a traced run as in a plain one."""
    tracer = sys.gettrace()
    sys.settrace(None)
    try:
        yield
    finally:
        sys.settrace(tracer)
