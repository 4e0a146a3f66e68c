"""Integration matrix: every model x every architecture, end to end.

For each of the four evaluation models and each synchronization plan,
train for several iterations on a 2x2 cluster and check: losses improve
or hold, replicas stay synchronized, the transcript contains the expected
traffic classes, and the final state matches the single-GPU reference.
"""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import (
    ar_graph_plan,
    classify_variables,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph import Session, gradients
from repro.nn.models import build_inception, build_lm, build_nmt, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer
from repro.tensor.sparse import IndexedSlices

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)
SEED = 21
LR = 0.3
ITERS = 6

MODEL_BUILDERS = {
    "lm": lambda: build_lm(batch_size=4, vocab_size=40, seq_len=2,
                           emb_dim=6, hidden=8, num_partitions=2, seed=0),
    "nmt": lambda: build_nmt(batch_size=4, src_vocab=30, tgt_vocab=30,
                             src_len=2, tgt_len=2, emb_dim=6, hidden=6,
                             num_partitions=2, seed=0),
    "resnet": lambda: build_resnet(batch_size=4, num_features=12,
                                   num_classes=3, width=12, num_blocks=1,
                                   seed=0),
    "inception": lambda: build_inception(batch_size=4, num_features=12,
                                         num_classes=3, width=6,
                                         num_modules=1, seed=0),
}

PLANS = {
    "parallax": lambda g: hybrid_graph_plan(g),
    "tf_ps": lambda g: graph_plan(g, "ps"),
    "opt_ps": lambda g: graph_plan(g, "opt_ps"),
    "horovod": lambda g: ar_graph_plan(g),
}


def build(model_name):
    model = MODEL_BUILDERS[model_name]()
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(LR).update(gvs)
    return model


def single_gpu_reference(model_name, iterations):
    """Sequential single-GPU emulation of synchronous data parallelism."""
    model = build(model_name)
    sess = Session(model.graph, seed=SEED)
    num_replicas = CLUSTER.total_gpus
    shards = [model.dataset.shard(num_replicas, r)
              for r in range(num_replicas)]
    grad_tensors = [
        (model.graph.get_op(grad_name).output, var_name)
        for var_name, grad_name in model.graph.gradient_info.items()
    ]
    for i in range(iterations):
        averaged = {}
        for r in range(num_replicas):
            feed = model.feed(shards[r].batch(model.batch_size, i))
            values = sess.run([gt for gt, _ in grad_tensors], feed)
            for (gt, var_name), value in zip(grad_tensors, values):
                if isinstance(value, IndexedSlices):
                    value = value.to_dense()
                averaged[var_name] = (
                    averaged.get(var_name, 0.0)
                    + np.asarray(value, np.float64) / num_replicas
                )
        for var_name, grad in averaged.items():
            sess.write_variable(
                var_name,
                (sess.read_variable(var_name) - LR * grad).astype(np.float32),
            )
    return {name: sess.read_variable(name)
            for name in model.graph.gradient_info}


@pytest.mark.parametrize("model_name", list(MODEL_BUILDERS))
@pytest.mark.parametrize("plan_name", list(PLANS))
def test_matrix_matches_single_gpu(model_name, plan_name):
    model = build(model_name)
    plan = PLANS[plan_name](model.graph)
    runner = DistributedRunner(model, CLUSTER, plan, seed=SEED)
    for i in range(ITERS):
        runner.step(i)
    reference = single_gpu_reference(model_name, ITERS)
    for name, expected in reference.items():
        got = runner.variable_value(name)
        np.testing.assert_allclose(
            got, expected, atol=5e-4,
            err_msg=f"{model_name}/{plan_name}:{name}")


@pytest.mark.parametrize("model_name", list(MODEL_BUILDERS))
def test_matrix_plan_composition(model_name):
    """Hybrid sends exactly the sparse variables to PS."""
    model = build(model_name)
    plan = hybrid_graph_plan(model.graph)
    runner = DistributedRunner(model, CLUSTER, plan, seed=SEED)
    classes = classify_variables(model.graph)
    sparse = {n for n, s in classes.items() if s}
    assert set(runner.transformed.ps_placement) == sparse
    assert set(runner.transformed.replica_variables) == \
        set(classes) - sparse


@pytest.mark.parametrize("model_name", ["lm", "nmt"])
def test_matrix_transcript_traffic_classes(model_name):
    """Hybrid traffic = collective (dense) + PS pulls/pushes (sparse)."""
    model = build(model_name)
    runner = DistributedRunner(model, CLUSTER,
                               hybrid_graph_plan(model.graph), seed=SEED)
    runner.step(0)
    tags = {t.tag.split("/")[0] for t in runner.transcript.transfers}
    assert "allreduce" in tags
    assert "edge" in tags  # PS pulls/pushes
    assert not any(t.tag.startswith("allgatherv")
                   for t in runner.transcript.transfers)
