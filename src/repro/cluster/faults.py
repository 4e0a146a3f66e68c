"""Deterministic fault injection for the elastic runtime.

A :class:`FaultPlan` is a reproducible failure schedule: worker kills
pinned to iteration numbers.  The functional runner raises
:class:`WorkerFailureError` when a scheduled kill fires (and notes it into
the Transcript); ``ElasticRunner`` recovers from the last checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class WorkerFailure:
    """Worker ``worker`` dies at the start of iteration ``iteration``.

    A failure fires exactly once: after recovery replays the same
    iteration number, the event is already spent.
    """

    iteration: int
    worker: int

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("failure iteration must be >= 0")
        if self.worker < 0:
            raise ValueError("worker index must be >= 0")


class WorkerFailureError(RuntimeError):
    """Raised when a worker fails -- a scheduled fault-plan kill, or a
    real worker process dying under the multiprocess backend.

    Real failures carry execution context so the error names exactly
    where the worker was in its schedule: ``schedule_index`` is the
    position in the rank's partitioned step schedule and ``op_name`` the
    op whose kernel (or receive) was in flight.  ``detail`` holds the
    remote traceback when one was recovered.
    """

    def __init__(self, iteration: int, worker: int, machine: int, *,
                 schedule_index: Optional[int] = None,
                 op_name: Optional[str] = None,
                 detail: Optional[str] = None):
        self.iteration = iteration
        self.worker = worker
        self.machine = machine
        self.schedule_index = schedule_index
        self.op_name = op_name
        self.detail = detail
        message = (
            f"worker {worker} (machine {machine}) failed at iteration "
            f"{iteration}"
        )
        if schedule_index is not None:
            message += f" at schedule position {schedule_index}"
        if op_name is not None:
            message += f" while executing {op_name!r}"
        if detail:
            message += f"\n{detail}"
        super().__init__(message)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of worker kills."""

    failures: Tuple[WorkerFailure, ...] = ()

    def __post_init__(self):
        # Accept lists for convenience but store hashable tuples: the
        # runner tracks fired events by identity in a set.
        object.__setattr__(self, "failures", tuple(self.failures))

    @classmethod
    def kill(cls, worker: int, at_iteration: int) -> "FaultPlan":
        """Shorthand for the single-failure schedule tests use most."""
        return cls(failures=(WorkerFailure(at_iteration, worker),))

    def failures_at(self, iteration: int) -> List[WorkerFailure]:
        return [f for f in self.failures if f.iteration == iteration]

    def __bool__(self) -> bool:
        return bool(self.failures)
