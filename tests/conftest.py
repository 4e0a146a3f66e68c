"""Suite-wide defaults.

Every ``transform_graph`` call in the test suite runs the static plan
verifier (deadlock / congruence / alias / accounting) unless a test
opts out explicitly with ``verify=False`` -- the whole suite doubles as
the verifier's regression matrix.  Production keeps the pass opt-in via
``ParallaxConfig.verify_plans``.
"""

import multiprocessing
import os
import threading
import time

import pytest

os.environ.setdefault("REPRO_VERIFY_PLANS", "1")


def _leaks():
    """Transport/backend resources this process still holds: socket
    threads, worker children, and /dev/shm rings it created (segment
    names carry the creator pid, so another run's rings on the same
    host are not ours to answer for)."""
    from repro.comm.shm import SHM_PREFIX, live_segments

    mine = f"{SHM_PREFIX}_{os.getpid()}_"
    return (
        [t.name for t in threading.enumerate()
         if t.name.startswith(("tcp-accept-", "tcp-read-"))]
        + [p.name for p in multiprocessing.active_children()
           if p.name.startswith("parallax-worker-")]
        + [n for n in live_segments() if n.startswith(mine)]
    )


def _assert_no_leaks():
    # close() joins its threads with a timeout; give a straggler that
    # is already unwinding a moment before calling it a leak.
    deadline = time.monotonic() + 5.0
    while _leaks() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _leaks() == []


@pytest.fixture
def assert_no_leaks():
    """Callable asserting nothing outlived a ``close()``/``shutdown()``."""
    return _assert_no_leaks


@pytest.fixture(scope="session", autouse=True)
def _no_leaks_at_session_end():
    yield
    _assert_no_leaks()
