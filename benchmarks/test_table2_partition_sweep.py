"""Table 2: throughput vs number of sparse-variable partitions (PS).

Paper values (words/sec, 48 GPUs, PS architecture):

    model   P=8     P=16    P=32    P=64    P=128   P=256
    LM      50.5k   78.6k   96.5k   96.1k   98.9k   93.2k
    NMT     90.7k   97.0k   96.5k   101.6k  98.5k   100.0k
"""


from conftest import _mark_benchmark, print_table
from repro.cli import PAPER_PARTITIONS, _fmt, table2
from repro.cluster.plan import profile_plan
from repro.cluster.simulator import throughput

PAPER = {
    "lm": {8: 50_500, 16: 78_600, 32: 96_500, 64: 96_100, 128: 98_900,
           256: 93_200},
    "nmt": {8: 90_700, 16: 97_000, 32: 96_500, 64: 101_600, 128: 98_500,
            256: 100_000},
}


def test_table2_rows(benchmark, paper_cluster):
    _mark_benchmark(benchmark)
    sweeps = table2(paper_cluster)
    rows = [[name] + [f"{_fmt(v)} ({_fmt(PAPER[name][p])})"
                      for p, v in values.items()]
            for name, values in sweeps.items()]
    print_table(
        "Table 2: words/sec vs partition count (simulated (paper))",
        ["model"] + [f"P={p}" for p in sweeps["lm"]], rows,
    )

    lm = sweeps["lm"]
    # Shape: LM improves substantially from 8 to the optimum...
    assert max(lm.values()) > 1.4 * lm[8]
    # ...the optimum sits in the paper's 32-128 band...
    best = max(lm, key=lm.get)
    assert 32 <= best <= 128
    # ...and 256 partitions are worse than the optimum (theta2 kicks in).
    assert lm[256] < lm[best]
    # NMT is much flatter than LM (the paper's 1.12x vs 1.98x spread).
    nmt = sweeps["nmt"]
    lm_spread = max(lm.values()) / min(lm.values())
    nmt_spread = max(nmt.values()) / min(nmt.values())
    assert nmt_spread < lm_spread


def test_bench_partition_sweep_point(benchmark, profiles, paper_cluster):
    profile = profiles["lm"]
    result = benchmark(
        throughput, profile,
        profile_plan(profile, "ps", PAPER_PARTITIONS["lm"]), paper_cluster
    )
    assert result > 0
