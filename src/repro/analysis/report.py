"""Findings and reports produced by the static plan verifier."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Finding:
    """One verified defect in a compiled plan.

    ``analysis`` names the checker that produced it (``deadlock``,
    ``congruence``, ``alias``, ``accounting`` or a lint rule),
    ``message`` is the one-line diagnostic, and ``trace`` is the
    counterexample: an ordered tuple of human-readable steps naming the
    ranks, schedule positions and op names involved, concrete enough to
    replay the failure by hand.
    """

    analysis: str
    message: str
    trace: Tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"[{self.analysis}] {self.message}"]
        lines.extend(f"    {step}" for step in self.trace)
        return "\n".join(lines)


@dataclass
class AnalysisReport:
    """The result of running every analysis over one plan.

    ``timings`` maps analysis name to seconds spent; ``stats`` carries
    informational counters (entries modelled, collective groups, bytes
    predicted) that tests and ``repro.cli verify`` surface.
    """

    findings: List[Finding] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self) -> str:
        if self.ok:
            header = "plan verified: no findings"
        else:
            header = f"plan verification FAILED: {len(self.findings)} finding(s)"
        parts = [header]
        parts.extend(f.render() for f in self.findings)
        timing = ", ".join(f"{name} {secs * 1e3:.2f}ms"
                           for name, secs in sorted(self.timings.items()))
        if timing:
            parts.append(f"timings: {timing}")
        return "\n".join(parts)


class PlanVerificationError(RuntimeError):
    """Raised by ``transform_graph(..., verify=True)`` on any finding."""

    def __init__(self, report: AnalysisReport):
        self.report = report
        super().__init__(report.render())
