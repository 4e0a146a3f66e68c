"""``python -m bench``: pin the host, then hand over to :mod:`bench.run`."""

import signal
import sys

from bench import hygiene

if __name__ == "__main__":
    hygiene.prepare_process()       # before anything imports NumPy
    from bench import run

    # A terminated run unwinds like any other, through the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        code = run.main()
    finally:
        hygiene.stop_children()     # nothing outlives the run
    sys.exit(code)
