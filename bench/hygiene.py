"""Host hygiene: BLAS pinning, host fingerprint, leak checks.

Nothing here may import NumPy at module level -- ``pin_blas_threads`` has
to run first (see ``bench/README.md``, "Why BLAS is pinned").
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Thread names the program gives its background threads.
_PROGRAM_THREADS = ("repro-serve-batcher", "tcp-accept", "tcp-read",
                    "tcp-rendezvous")


def prepare_process() -> None:
    """Pin BLAS to one thread, drop plan verification, expose ``src/``.

    Forked workers inherit the environment.  With NumPy's default BLAS
    pool the two workers of a 2-replica fleet oversubscribe a 2-core
    host and the numbers measure the scheduler, not the program.
    """
    unpinned = [v for v in _THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned and "numpy" in sys.modules:
        raise SystemExit(
            "bench: NumPy was imported before BLAS threads were pinned "
            f"({', '.join(unpinned)} != 1); run `python -m bench` in a "
            "fresh interpreter")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    # The suite's conftest turns verification on; it would be paid inside
    # every runner construction and land in setup_s.
    os.environ.pop("REPRO_VERIFY_PLANS", None)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit(f"bench: no program to measure at {SRC_DIR}/repro")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def fingerprint(seed: int) -> Dict[str, object]:
    """What the numbers were measured on; stored with every result."""
    import numpy as np

    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "host": f"{platform.system()}-{platform.machine()}-"
                f"{os.cpu_count()}c",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ[_THREAD_VARS[0]]),
        "git_sha": sha or None,
        "seed": seed,
    }


def _listening_sockets() -> List[str]:
    """Local addresses of TCP sockets this process still listens on."""
    inodes = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    listening = []
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as f:
                rows = f.read().splitlines()[1:]
        except OSError:
            continue
        for row in rows:
            fields = row.split()
            if fields[3] == "0A" and fields[9] in inodes:
                listening.append(fields[1])
    return listening


def _tracker_pid():
    """Pid of multiprocessing's resource tracker, or None.  The first
    ``SharedMemory`` starts it; it is a helper of the interpreter, not a
    leak -- but it outlives the interpreter unless ``stop_children`` ends
    it."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    return getattr(getattr(tracker, "_resource_tracker", None), "_pid", None)


def _child_pids() -> List[int]:
    """Direct children of this process, zombies included."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # "pid (comm) state ppid ..."; comm may hold anything.
                ppid = int(f.read().rpartition(")")[2].split()[1])
        except (OSError, ValueError, IndexError):
            continue    # gone between listdir and open
        if ppid == me:
            children.append(int(entry))
    return children


def stop_children(grace_s: float = 5.0) -> None:
    """End every process this one started and wait for each: the run's
    last act on every path out.  Python 3.11 leaves the resource tracker
    to notice its parent's exit on its own, i.e. alive *after* the run."""
    if "multiprocessing" in sys.modules:
        import multiprocessing

        for process in multiprocessing.active_children():
            process.terminate()
            process.join(grace_s)
            if process.is_alive():
                process.kill()
                process.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        # Closes the tracker's pipe, which ends it, and waits for it.
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def leak_violations(settle_s: float = 2.0) -> List[str]:
    """What a closed workload left behind: children, program threads,
    this process' ``pxring`` segments, listening sockets.

    Daemon reader threads exit asynchronously after their socket closes,
    so the checks poll for up to *settle_s* before calling it a leak.
    """
    import multiprocessing

    from repro.comm.shm import SHM_PREFIX, live_segments

    mine = f"{SHM_PREFIX}_{os.getpid()}_"
    deadline = time.monotonic() + settle_s
    while True:
        found = []
        known = {p.pid: p.name for p in multiprocessing.active_children()}
        found += [f"child process {known.get(pid, '?')} (pid {pid})"
                  for pid in sorted(set(known) | set(_child_pids()))
                  if pid != _tracker_pid()]
        found += [f"thread {t.name}" for t in threading.enumerate()
                  if t.name.startswith(_PROGRAM_THREADS)]
        found += [f"/dev/shm/{name}" for name in live_segments()
                  if name.startswith(mine)]
        if os.path.isdir("/proc/self/fd"):
            found += [f"listening socket {a}" for a in _listening_sockets()]
        if not found or time.monotonic() >= deadline:
            return found
        time.sleep(0.05)
