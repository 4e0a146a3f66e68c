"""Shared helpers for the benchmark harness.

Every file in this directory checks one table or figure from the
paper's evaluation (section 6).  The simulated tables are the numbers
``repro.cli`` prints (each experiment there returns them); benches print
them next to the published numbers and assert the *shape* claims (who
wins, where crossovers fall); pytest-benchmark times the underlying
simulation or functional iteration.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from typing import Iterable, Sequence

import pytest

from repro.cluster.spec import PAPER_CLUSTER
from repro.nn.profiles import PAPER_PROFILES


def print_table(title: str, header: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    print(f"\n=== {title} ===")
    widths = [max(len(str(h)), 12) for h in header]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture(scope="session")
def profiles():
    return PAPER_PROFILES()


@pytest.fixture(scope="session")
def paper_cluster():
    return PAPER_CLUSTER


def _mark_benchmark(benchmark) -> None:
    """Register a trivial timing so table-regeneration tests also run
    under ``--benchmark-only`` (pytest-benchmark skips tests that never
    touch the fixture).  Real timings come from the ``test_bench_*``
    tests in each file."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
