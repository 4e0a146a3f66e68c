"""Table 1: PS vs AR throughput and model sparsity (48 GPUs).

Paper values (words or images per second):

    model         #dense    #sparse   alpha    PS       AR
    ResNet-50     23.8M     0         1        5.8k     7.6k
    Inception-v3  25.6M     0         1        3.8k     5.9k
    LM            9.4M      813.3M    0.02     98.9k    45.5k
    NMT           94.1M     74.9M     0.65*    102k     68.3k

(* our element-weighted alpha definition gives ~0.59 for NMT; see the
NMT alpha comment in ``repro/nn/profiles.py``.)
"""

import pytest

from conftest import _mark_benchmark, print_table
from repro.cli import PAPER_PARTITIONS, _fmt, table1
from repro.cluster.plan import profile_plan
from repro.cluster.simulator import simulate_iteration

PAPER = {
    "resnet50": {"ps": 5_800, "ar": 7_600, "alpha": 1.0},
    "inception_v3": {"ps": 3_800, "ar": 5_900, "alpha": 1.0},
    "lm": {"ps": 98_900, "ar": 45_500, "alpha": 0.02},
    "nmt": {"ps": 102_000, "ar": 68_300, "alpha": 0.65},
}


def test_table1_rows(benchmark, profiles, paper_cluster):
    _mark_benchmark(benchmark)
    rows = []
    results = {name: (row["tf_ps"], row["horovod"])
               for name, row in table1(paper_cluster).items()}
    for name, profile in profiles.items():
        ps, ar = results[name]
        rows.append([
            name,
            f"{profile.dense_elements / 1e6:.1f}M",
            f"{profile.sparse_elements / 1e6:.1f}M",
            f"{profile.alpha_model:.2f}",
            f"{_fmt(ps)} (paper {_fmt(PAPER[name]['ps'])})",
            f"{_fmt(ar)} (paper {_fmt(PAPER[name]['ar'])})",
        ])
    print_table("Table 1: variables, alpha, PS vs AR throughput @48 GPUs",
                ["model", "# dense", "# sparse", "alpha", "PS", "AR"], rows)

    # Shape assertions: AR wins on dense, PS wins on sparse.
    for name in ("resnet50", "inception_v3"):
        ps, ar = results[name]
        assert ar > ps
    for name in ("lm", "nmt"):
        ps, ar = results[name]
        assert ps > ar


def test_element_counts_match_paper(benchmark, profiles):
    _mark_benchmark(benchmark)
    assert profiles["resnet50"].dense_elements == pytest.approx(23.8e6,
                                                                rel=1e-3)
    assert profiles["inception_v3"].dense_elements == pytest.approx(
        25.6e6, rel=1e-3)
    assert profiles["lm"].sparse_elements == pytest.approx(813.3e6, rel=1e-3)
    assert profiles["nmt"].sparse_elements == pytest.approx(74.9e6, rel=1e-3)


@pytest.mark.parametrize("model", ["resnet50", "lm"])
def test_bench_simulate_iteration(benchmark, profiles, paper_cluster, model):
    """Time one full iteration simulation (flow network + cost model)."""
    profile = profiles[model]
    plan = profile_plan(profile, "ps", PAPER_PARTITIONS.get(model, 1))
    breakdown = benchmark(simulate_iteration, profile, plan, paper_cluster)
    assert breakdown.iteration_time > 0
