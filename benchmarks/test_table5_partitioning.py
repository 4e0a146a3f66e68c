"""Table 5: Parallax's partition search vs Min and brute-force Optimal.

Paper values (words/sec, 48 GPUs):

    model   Parallax   Min       Optimal
    LM      274k       96.5k     260.3k
    NMT     204k       124.1k    208k

plus the search-cost claim: Parallax needs at most ~5 sampled partition
counts where brute force needs 50+ runs.
"""


from conftest import _mark_benchmark, fmt, print_table
from repro.cluster.plan import profile_plan
from repro.cluster.simulator import simulate_iteration
from repro.core.partitioner import PartitionSearch, brute_force_search

PAPER = {
    "lm": {"parallax": 274_000, "min": 96_500, "optimal": 260_300},
    "nmt": {"parallax": 204_000, "min": 124_100, "optimal": 208_000},
}
# Paper: smallest feasible partition counts without OOM.
MIN_PARTITIONS = {"lm": 4, "nmt": 2}


def make_measure(profile, cluster):
    def measure(p: int) -> float:
        plan = profile_plan(profile, "hybrid", p)
        return simulate_iteration(profile, plan, cluster).iteration_time

    return measure


def test_table5_rows(benchmark, profiles, paper_cluster):
    _mark_benchmark(benchmark)
    rows = []
    for name in ("lm", "nmt"):
        profile = profiles[name]
        measure = make_measure(profile, paper_cluster)
        units = profile.units_per_iteration(paper_cluster.total_gpus)

        search = PartitionSearch(measure,
                                 initial=paper_cluster.num_machines,
                                 min_partitions=MIN_PARTITIONS[name],
                                 max_partitions=1024)
        result = search.run()
        parallax_tp = units / measure(result.best_partitions)

        min_tp = units / measure(MIN_PARTITIONS[name])

        brute = brute_force_search(measure, MIN_PARTITIONS[name], 4096)
        optimal_tp = units / measure(brute.best_partitions)

        rows.append([
            name,
            f"{fmt(parallax_tp)} P={result.best_partitions} "
            f"({fmt(PAPER[name]['parallax'])})",
            f"{fmt(min_tp)} ({fmt(PAPER[name]['min'])})",
            f"{fmt(optimal_tp)} P={brute.best_partitions} "
            f"({fmt(PAPER[name]['optimal'])})",
            f"{result.num_samples} vs {brute.num_samples} samples",
        ])

        # Shape claims from section 6.5:
        # Parallax's choice beats Min substantially...
        assert parallax_tp > 1.3 * min_tp, name
        # ...is within 5% of the brute-force optimum...
        assert parallax_tp >= 0.95 * optimal_tp, name
        # ...with far fewer samples.
        assert result.num_samples <= brute.num_samples

    print_table("Table 5: partitioning methods (simulated (paper))",
                ["model", "Parallax", "Min", "Optimal", "search cost"],
                rows)


def test_lm_min_to_parallax_ratio(benchmark, profiles, paper_cluster):
    _mark_benchmark(benchmark)
    """Paper: 2.84x for LM, 1.64x for NMT (Min -> Parallax).  We assert
    the ordering (LM gains more) rather than the absolute ratios."""
    gains = {}
    for name in ("lm", "nmt"):
        profile = profiles[name]
        measure = make_measure(profile, paper_cluster)
        search = PartitionSearch(measure,
                                 initial=paper_cluster.num_machines,
                                 min_partitions=MIN_PARTITIONS[name],
                                 max_partitions=1024).run()
        gains[name] = measure(MIN_PARTITIONS[name]) / \
            measure(search.best_partitions)
    assert gains["lm"] > gains["nmt"] > 1.0


def test_bench_partition_search(benchmark, profiles, paper_cluster):
    profile = profiles["lm"]
    measure = make_measure(profile, paper_cluster)

    def run_search():
        return PartitionSearch(measure, initial=8,
                               max_partitions=1024).run()

    result = benchmark(run_search)
    assert result.best_partitions >= 8
