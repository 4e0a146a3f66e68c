"""Table 4: architecture ablation AR / NaivePS / OptPS / HYB (48 GPUs).

Paper values (words/sec):

    model   AR      NaivePS   OptPS   HYB
    LM      45.5k   98.9k     250k    274k
    NMT     68.3k   102k      116k    204k
"""


from conftest import _mark_benchmark, PAPER_PARTITIONS, fmt, print_table
from repro.cluster.plan import ARCHITECTURES, profile_plan
from repro.cluster.simulator import throughput

PAPER = {
    "lm": {"horovod": 45_500, "tf_ps": 98_900, "opt_ps": 250_000,
           "parallax": 274_000},
    "nmt": {"horovod": 68_300, "tf_ps": 102_000, "opt_ps": 116_000,
            "parallax": 204_000},
}
ARCHS = ("ar", "ps", "opt_ps", "hybrid")
LABELS = {"horovod": "AR", "tf_ps": "NaivePS", "opt_ps": "OptPS",
          "parallax": "HYB"}


def test_table4_rows(benchmark, profiles, paper_cluster):
    _mark_benchmark(benchmark)
    rows = []
    results = {}
    for name in ("lm", "nmt"):
        profile = profiles[name]
        partitions = PAPER_PARTITIONS[name]
        values = {
            ARCHITECTURES[arch].label: throughput(
                profile, profile_plan(profile, arch, partitions),
                paper_cluster)
            for arch in ARCHS
        }
        results[name] = values
        rows.append([name] + [
            f"{fmt(values[a])} ({fmt(PAPER[name][a])})" for a in values
        ])
    print_table("Table 4: architecture ablation, words/sec @48 GPUs "
                "(simulated (paper))",
                ["model"] + [LABELS[a] for a in values], rows)

    for name in ("lm", "nmt"):
        v = results[name]
        # Paper ordering: AR < NaivePS < OptPS <= HYB.
        assert v["horovod"] < v["tf_ps"] < v["opt_ps"], name
        assert v["parallax"] >= 0.99 * v["opt_ps"], name

    # The hybrid's extra gain over OptPS is bigger for NMT (balanced
    # dense/sparse mix) than for LM (99% sparse) -- paper section 6.4.
    lm_gain = results["lm"]["parallax"] / results["lm"]["opt_ps"]
    nmt_gain = results["nmt"]["parallax"] / results["nmt"]["opt_ps"]
    assert nmt_gain > lm_gain


def test_optimization_attribution(benchmark, profiles, paper_cluster):
    _mark_benchmark(benchmark)
    """OptPS = local aggregation + smart placement; check both help."""
    from dataclasses import replace

    profile = profiles["lm"]
    base = profile_plan(profile, "ps", 128)
    with_local = replace(base, local_aggregation=True)
    with_both = replace(base, local_aggregation=True, smart_placement=True)
    t_base = throughput(profile, base, paper_cluster)
    t_local = throughput(profile, with_local, paper_cluster)
    t_both = throughput(profile, with_both, paper_cluster)
    print(f"\nLM OptPS attribution: naive={fmt(t_base)} "
          f"+local_agg={fmt(t_local)} +smart={fmt(t_both)}")
    assert t_local > t_base
    assert t_both >= t_local


def test_bench_hybrid_iteration(benchmark, profiles, paper_cluster):
    profile = profiles["nmt"]
    plan = profile_plan(profile, "hybrid", 64)
    result = benchmark(throughput, profile, plan, paper_cluster)
    assert result > 0
