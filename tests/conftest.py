"""A wall-clock bound on every test, so that a regression which unbounds a
search fails its test instead of hanging the suite.

The slowest tier-1 test takes about 2.6 s and the slowest -m slow test
about 41 s (pytest --durations on a shared 2-core x86-64 machine), so the
bounds leave a margin of seven or more. The bound is a SIGALRM interval
timer, which needs a platform that has it; elsewhere tests run unbounded.
"""

import signal

import pytest

TEST_SECONDS = 30
SLOW_TEST_SECONDS = 300


@pytest.fixture(autouse=True)
def bounded_time(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    seconds = SLOW_TEST_SECONDS if request.node.get_closest_marker("slow") else TEST_SECONDS

    def expire(signum, frame):
        pytest.fail(f"test ran past its {seconds} s bound", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
