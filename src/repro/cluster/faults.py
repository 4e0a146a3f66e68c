"""Deterministic fault-injection plane for the elastic runtime.

A :class:`FaultPlan` is a reproducible failure schedule: worker kills and
NIC degradations pinned to iteration numbers.  Both execution planes
consume it -- the functional runner raises :class:`WorkerFailureError`
when a scheduled kill fires (and notes every event into the Transcript),
while the performance simulator prices the recovery downtime and the
degraded-bandwidth windows the same schedule implies.

Living in the cluster layer keeps the dependency direction intact: the
core runtime and the simulator both import from here, never from each
other.
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


@dataclass(frozen=True)
class NicDegradation:
    """Machine ``machine``'s NIC runs at ``factor`` of its bandwidth for
    ``duration`` iterations starting at ``iteration``."""

    iteration: int
    machine: int
    factor: float
    duration: int = 1

    def __post_init__(self):
        if self.iteration < 0:
            raise ValueError("degradation iteration must be >= 0")
        if self.machine < 0:
            raise ValueError("machine index must be >= 0")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        if self.duration < 1:
            raise ValueError("degradation duration must be >= 1")

    def active_at(self, iteration: int) -> bool:
        return self.iteration <= iteration < self.iteration + self.duration


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
    """A deterministic schedule of failures and NIC degradations."""

    failures: Tuple[WorkerFailure, ...] = ()
    degradations: Tuple[NicDegradation, ...] = ()

    def __post_init__(self):
        # Accept lists for convenience but store hashable tuples: the
        # runner tracks fired events by identity in a set.
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "degradations", tuple(self.degradations))

    @classmethod
    def kill(cls, worker: int, at_iteration: int) -> "FaultPlan":
        """Shorthand for the single-failure schedule tests use most."""
        return cls(failures=(WorkerFailure(at_iteration, worker),))

    def failures_at(self, iteration: int) -> List[WorkerFailure]:
        return [f for f in self.failures if f.iteration == iteration]

    def degradations_at(self, iteration: int) -> List[NicDegradation]:
        return [d for d in self.degradations if d.active_at(iteration)]

    def nic_factor(self, iteration: int,
                   machine: Optional[int] = None) -> float:
        """Combined bandwidth factor active at *iteration*.

        Overlapping degradations compound multiplicatively; ``machine``
        restricts the product to one machine's events (the simulator's
        iteration pricing is cluster-wide, so it passes None and takes the
        worst case of any degraded NIC slowing the whole synchronous
        step).
        """
        factor = 1.0
        for d in self.degradations_at(iteration):
            if machine is None or d.machine == machine:
                factor *= d.factor
        return factor

    @property
    def last_scheduled_iteration(self) -> int:
        """The last iteration any event touches (-1 for an empty plan)."""
        last = -1
        for f in self.failures:
            last = max(last, f.iteration)
        for d in self.degradations:
            last = max(last, d.iteration + d.duration - 1)
        return last

    def __bool__(self) -> bool:
        return bool(self.failures or self.degradations)
