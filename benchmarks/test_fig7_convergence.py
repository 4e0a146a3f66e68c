"""Figure 7: model convergence -- time to reach a target metric.

The paper's point: all three frameworks converge to the same quality
(synchronous training computes identical updates), so time-to-target is
throughput x identical iteration count.  Parallax reaches the targets
~1.5x before Horovod on ResNet-50, 2.6x/5.9x before TF-PS/Horovod on LM,
and 1.7x/2.3x on NMT.

This bench runs the *functional plane* to convergence on scaled-down
models (verifying the identical-trajectory premise for real), then maps
iteration counts to wall-clock with the paper-scale performance plane.
"""

import numpy as np
import pytest

from conftest import _mark_benchmark, PAPER_PARTITIONS, print_table
from repro.cluster.plan import ARCHITECTURES, profile_plan
from repro.cluster.simulator import simulate_iteration
from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import graph_plan
from repro.graph import gradients
from repro.nn.models import build_lm, build_nmt, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer

FUNCTIONAL_CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)

# Framework name -> architecture, in the order the rows print.
GRAPH_PLANS = {ARCHITECTURES[arch].label: arch
               for arch in ("hybrid", "ps", "ar")}

# Paper speedup factors at the vertical target lines of Figure 7.
PAPER_SPEEDUP = {
    "resnet": {"horovod": 1.0, "tf_ps": 1.5},
    "lm": {"tf_ps": 2.6, "horovod": 5.9},
    "nmt": {"tf_ps": 1.7, "horovod": 2.3},
}


def prepare(builder, lr, **kwargs):
    model = builder(**kwargs)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(lr).update(gvs)
    return model


def iterations_to_target(make_model, target_loss, max_iters=80):
    """Train each architecture until mean loss crosses the target."""
    iters = {}
    trajectories = {}
    for arch, key in GRAPH_PLANS.items():
        model = make_model()
        runner = DistributedRunner(model, FUNCTIONAL_CLUSTER,
                                   graph_plan(model.graph, key), seed=5)
        losses = []
        hit = None
        for i in range(max_iters):
            losses.append(runner.step(i).mean_loss)
            if hit is None and losses[-1] <= target_loss:
                hit = i + 1
                break
        iters[arch] = hit
        trajectories[arch] = losses
    return iters, trajectories


def paper_scale_iteration_time(profile_name, arch, profiles):
    profile = profiles[profile_name]
    partitions = PAPER_PARTITIONS.get(profile_name, 1)
    plan = profile_plan(profile, arch, partitions)
    cluster = ClusterSpec(8, 6)
    return simulate_iteration(profile, plan, cluster).iteration_time


@pytest.mark.parametrize("case,make_model,target,profile_name", [
    ("resnet",
     lambda: prepare(build_resnet, 0.1, batch_size=8, num_features=16,
                     num_classes=4, width=16, num_blocks=1, seed=0),
     1.0, "resnet50"),
    ("lm",
     lambda: prepare(build_lm, 0.8, batch_size=8, vocab_size=40, seq_len=3,
                     emb_dim=10, hidden=12, num_partitions=2, seed=0),
     3.55, "lm"),
    ("nmt",
     lambda: prepare(build_nmt, 0.8, batch_size=8, src_vocab=30,
                     tgt_vocab=30, src_len=2, tgt_len=2, emb_dim=8,
                     hidden=8, num_partitions=2, seed=0),
     3.2, "nmt"),
])
def test_fig7_case(benchmark, case, make_model, target, profile_name, profiles):
    _mark_benchmark(benchmark)
    iters, trajectories = iterations_to_target(make_model, target)

    # Premise: all frameworks need the same number of iterations (they
    # compute identical synchronous updates).
    counts = set(iters.values())
    assert None not in counts, f"{case}: did not converge {iters}"
    assert len(counts) == 1, f"{case}: iteration counts differ {iters}"
    iterations = counts.pop()

    # Wall-clock at paper scale = iterations x simulated iteration time.
    times = {
        arch: iterations * paper_scale_iteration_time(
            profile_name, GRAPH_PLANS[arch], profiles)
        for arch in GRAPH_PLANS
    }
    rows = [
        [arch, iterations, f"{times[arch] / 60:.1f} min",
         f"{times[arch] / times['parallax']:.2f}x"]
        for arch in ("parallax", "tf_ps", "horovod")
    ]
    print_table(f"Figure 7 ({case}): time to target loss {target}",
                ["framework", "iterations", "time", "vs parallax"], rows)

    # Parallax converges first (or ties Horovod on the dense model).
    slack = 1.02 if case == "resnet" else 1.0
    assert times["parallax"] <= times["tf_ps"] * slack
    assert times["parallax"] <= times["horovod"] * slack


def test_identical_loss_trajectories(benchmark):
    _mark_benchmark(benchmark)
    """Stronger than Fig 7 needs: per-iteration losses match exactly."""
    make_model = lambda: prepare(  # noqa: E731
        build_lm, 0.5, batch_size=4, vocab_size=30, seq_len=2, emb_dim=6,
        hidden=8, num_partitions=2, seed=0)
    trajectories = {}
    for arch, key in GRAPH_PLANS.items():
        model = make_model()
        runner = DistributedRunner(model, FUNCTIONAL_CLUSTER,
                                   graph_plan(model.graph, key), seed=5)
        trajectories[arch] = [runner.step(i).mean_loss for i in range(5)]
    base = trajectories["parallax"]
    for arch, losses in trajectories.items():
        np.testing.assert_allclose(losses, base, rtol=1e-4, err_msg=arch)


def test_bench_functional_step(benchmark):
    model = prepare(build_lm, 0.5, batch_size=4, vocab_size=30, seq_len=2,
                    emb_dim=6, hidden=8, num_partitions=2, seed=0)
    runner = DistributedRunner(model, FUNCTIONAL_CLUSTER,
                               graph_plan(model.graph, "hybrid"), seed=5)
    counter = iter(range(10 ** 9))

    def step():
        return runner.step(next(counter))

    result = benchmark(step)
    assert result.mean_loss > 0
