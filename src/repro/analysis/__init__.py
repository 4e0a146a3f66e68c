"""Static plan verification: compile-time proofs over transformed graphs.

The engine's correctness story used to rest on "by construction"
arguments: the partitioned multiprocess schedule cannot deadlock, the
buffer arena never lets an output overlap a live input, the collectives
conserve the plan's bytes.  This package turns each claim into a checked
theorem that runs before any worker is launched:

* :mod:`~repro.analysis.deadlock` -- cross-rank send/recv matching and
  wait-for cycle detection over the per-worker schedule partitions;
* :mod:`~repro.analysis.congruence` -- MPI-style verification that every
  replica issues the same collective sequence with matching layouts;
* :mod:`~repro.analysis.alias` -- an independent re-derivation of
  liveness and storage aliasing that audits the buffer arena's plan;
* :mod:`~repro.analysis.accounting` -- static wire-byte bookkeeping that
  must agree with the plan-level inventory and predicts the Transcript's
  measured bytes;
* :mod:`~repro.analysis.lint` -- a repo-specific AST lint for invariants
  generic linters cannot express (``python -m repro.analysis.lint``).

Entry point: :func:`~repro.analysis.verifier.verify_plan`, wired into
``transform_graph(..., verify=True)`` and the ``repro.cli verify``
subcommand.
"""

from repro.analysis.report import (  # noqa: F401
    AnalysisReport,
    Finding,
    PlanVerificationError,
)
from repro.analysis.verifier import (  # noqa: F401
    forward_fetch_ops,
    verify_plan,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "PlanVerificationError",
    "forward_fetch_ops",
    "verify_plan",
]
