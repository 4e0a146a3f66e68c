"""Table 6: Parallax vs TF-PS under varying sparsity degree.

The paper constructs an LM variant whose alpha_model is controlled by the
number of words per data instance (length), and reports (words/sec):

    length  alpha   Parallax   TF-PS   speedup
    120     1.0     437k       214k    2.04x
    60      0.52    511k       219k    2.33x
    30      0.28    536k       221k    2.43x
    15      0.16    557k       193k    2.89x
    8       0.1     480k       159k    3.02x
    4       0.07    285k       94k     3.03x
    1       0.04    82k        24k     3.42x
"""

import pytest

from conftest import _mark_benchmark, print_table
from repro.cli import TABLE6_PARTITIONS, _fmt, table6
from repro.cluster.plan import profile_plan
from repro.cluster.simulator import throughput
from repro.nn.profiles import TABLE6_ALPHA, constructed_lm_profile

PAPER = {
    120: (437_000, 214_000), 60: (511_000, 219_000), 30: (536_000, 221_000),
    15: (557_000, 193_000), 8: (480_000, 159_000), 4: (285_000, 94_000),
    1: (82_000, 24_000),
}


def test_table6_rows(benchmark, paper_cluster):
    _mark_benchmark(benchmark)
    rows = []
    speedups = {}
    for length, row in table6(paper_cluster).items():
        parallax, tf_ps = row["parallax"], row["tf_ps"]
        speedup = parallax / tf_ps
        speedups[length] = speedup
        paper_px, paper_ps = PAPER[length]
        rows.append([
            length,
            f"{TABLE6_ALPHA[length]:.2f}",
            f"{_fmt(parallax)} ({_fmt(paper_px)})",
            f"{_fmt(tf_ps)} ({_fmt(paper_ps)})",
            f"{speedup:.2f}x ({paper_px / paper_ps:.2f}x)",
        ])
        assert speedup > 1.0, f"length={length}"
    print_table("Table 6: sparsity-degree sweep (simulated (paper))",
                ["length", "alpha", "Parallax", "TF-PS", "speedup"], rows)

    # Shape: the Parallax advantage grows as alpha shrinks ("the biggest
    # speedup ... is 3.42 when alpha_model is minimum").  Length 120 is
    # excluded from the monotone chain: at alpha = 1 the hybrid rule
    # legitimately switches the embeddings to AllReduce (section 3.1's
    # near-dense refinement), which changes the mechanism.
    assert speedups[1] > speedups[60]
    ordered = [speedups[length] for length in (60, 30, 8, 1)]
    assert all(b >= a * 0.95 for a, b in zip(ordered, ordered[1:]))


def test_sparse_alpha_matches_paper_column(benchmark, paper_cluster):
    _mark_benchmark(benchmark)
    """Table 6's alpha column is the sparse-variable alpha (see
    repro.nn.profiles for why it cannot be the element-weighted one)."""
    for length, alpha in TABLE6_ALPHA.items():
        profile = constructed_lm_profile(length)
        for v in profile.sparse_variables:
            assert v.alpha == pytest.approx(alpha)


def test_absolute_throughput_rises_with_length(benchmark, paper_cluster):
    _mark_benchmark(benchmark)
    """More words per instance = more words per iteration; both systems'
    absolute words/sec peak at medium-to-long lengths, as in the paper."""
    rows = table6(paper_cluster)
    t1 = rows[1]["parallax"]
    t60 = rows[60]["parallax"]
    assert t60 > 3 * t1


def test_bench_constructed_lm(benchmark, paper_cluster):
    profile = constructed_lm_profile(30)
    plan = profile_plan(profile, "hybrid", TABLE6_PARTITIONS)
    result = benchmark(throughput, profile, plan, paper_cluster)
    assert result > 0
