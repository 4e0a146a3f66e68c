"""Functional-plane verification of the paper's Table 3 transfer model.

One worker per machine (the paper's setting), real execution, real byte
accounting: the per-machine network transfer recorded by the distributed
engine must match the closed forms:

    PS, dense variable:   server machine moves 2 w (N-1) bytes
    PS, sparse variable:  server machine moves 2 alpha w (N-1) bytes
    AR, dense variable:   every machine moves 4 w (N-1)/N bytes
    AR, sparse variable:  every machine moves 2 alpha w (N-1) bytes
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner
from repro.core.transform.plan import ar_graph_plan, graph_plan
from repro.graph import gradients, ops
from repro.graph.graph import Graph
from repro.graph.variables import Variable
from repro.nn import layers
from repro.nn.datasets import SyntheticTextDataset
from repro.nn.models.common import BuiltModel
from repro.nn.optimizers import GradientDescentOptimizer

N = 3  # machines, one GPU each
CLUSTER = ClusterSpec(num_machines=N, gpus_per_machine=1)

VOCAB = 24
EMB_DIM = 4
BATCH = 5
DENSE_SHAPE = (EMB_DIM, VOCAB)


def build_model():
    """One sparse embedding + one dense weight, nothing else."""
    ds = SyntheticTextDataset(size=64, vocab_size=VOCAB, seq_len=1, seed=3)
    g = Graph()
    with g.as_default():
        tokens = ops.placeholder((BATCH, 1), dtype="int64", name="tokens")
        targets = ops.placeholder((BATCH, 1), dtype="int64", name="targets")
        ids = ops.reshape(tokens, (BATCH,), name="ids")
        emb, _ = layers.embedding(ids, VOCAB, EMB_DIM, name="emb")
        w = Variable("w", DENSE_SHAPE)
        logits = ops.matmul(emb, w.tensor, name="logits")
        labels = ops.reshape(targets, (BATCH,), name="labels")
        labels6 = ops.identity(labels, name="labels6")
        loss = ops.softmax_xent(logits, labels6, name="loss")
        gvs = gradients(loss)
        GradientDescentOptimizer(0.1).update(gvs)
    return BuiltModel(graph=g, loss=loss,
                      placeholders={"tokens": tokens, "targets": targets},
                      dataset=ds, batch_size=BATCH, name="table3")


def exact_bytes(transcript, tag):
    """Network bytes for one exact tag (prefix filtering would also match
    'edge/shard_lookup_grad' when asking for 'edge/shard_lookup')."""
    return sum(t.nbytes for t in transcript.filter() if t.tag == tag)


def batch_row_stats(runner, iteration):
    """(requested rows, unique rows) per worker for the iteration."""
    requested, unique = [], []
    for r in range(N):
        tokens, _ = runner.shards[r].batch(BATCH, iteration)
        flat = tokens.reshape(-1)
        requested.append(flat.size)
        unique.append(np.unique(flat).size)
    return requested, unique


@pytest.fixture()
def ps_runner():
    model = build_model()
    # Smart placement so the only flows are pull/push to the owning server.
    plan = replace(graph_plan(model.graph, "ps"), smart_placement=True)
    return DistributedRunner(model, CLUSTER, plan, seed=0)


def run_and_capture(runner, iteration=1):
    runner.step(0)
    runner.transcript.clear()
    runner.step(iteration)
    return runner.transcript


class TestPSDense:
    def test_server_moves_2w_times_n_minus_1(self, ps_runner):
        transcript = run_and_capture(ps_runner)
        w_bytes = int(np.prod(DENSE_SHAPE)) * 4
        server = ps_runner.transformed.ps_placement["w"]
        pull_out = sum(
            t.nbytes for t in transcript.filter("edge/read_var")
            if t.src_machine == server
        )
        push_in = sum(
            t.nbytes for t in transcript.filter()
            if t.dst_machine == server and t.tag in
            ("edge/vjp", "edge/grad_add")
        )
        assert pull_out == w_bytes * (N - 1)
        assert push_in == w_bytes * (N - 1)


class TestPSSparse:
    def test_pull_bytes_are_requested_rows(self, ps_runner):
        transcript = run_and_capture(ps_runner)
        requested, _ = batch_row_stats(ps_runner, 1)
        server = ps_runner.transformed.ps_placement["emb"]
        row_bytes = EMB_DIM * 4
        expected = sum(rows * row_bytes for r, rows in enumerate(requested)
                       if r != server)
        measured = exact_bytes(transcript, "edge/shard_lookup")
        assert measured == expected

    def test_push_bytes_are_gradient_rows(self, ps_runner):
        transcript = run_and_capture(ps_runner)
        requested, _ = batch_row_stats(ps_runner, 1)
        server = ps_runner.transformed.ps_placement["emb"]
        row_bytes = EMB_DIM * 4
        expected = sum(rows * row_bytes for r, rows in enumerate(requested)
                       if r != server)
        measured = transcript.total_network_bytes("edge/shard_lookup_grad")
        assert measured == expected

    def test_sparse_traffic_well_below_dense_variable_cost(self, ps_runner):
        """The whole point: alpha*w << w for the embedding."""
        transcript = run_and_capture(ps_runner)
        emb_bytes = VOCAB * EMB_DIM * 4
        sparse_total = (
            exact_bytes(transcript, "edge/shard_lookup")
            + exact_bytes(transcript, "edge/shard_lookup_grad")
        )
        assert sparse_total < 2 * emb_bytes * (N - 1) * 0.5


class TestARDense:
    def test_per_machine_bytes_match_4w_fraction(self):
        model = build_model()
        plan = ar_graph_plan(model.graph)
        runner = DistributedRunner(model, CLUSTER, plan, seed=0)
        transcript = run_and_capture(runner)
        w_bytes = int(np.prod(DENSE_SHAPE)) * 4
        loads = transcript.bytes_per_machine("allreduce")
        expected_per_direction = 2 * (N - 1) * w_bytes / N
        for m in range(N):
            assert loads[m]["out"] == pytest.approx(expected_per_direction,
                                                    rel=0.07)
            assert loads[m]["in"] == pytest.approx(expected_per_direction,
                                                   rel=0.07)


class TestARSparse:
    def test_per_machine_gatherv_bytes(self):
        """In the ring schedule, machine m forwards the payloads of origins
        m, m-1, ..., m-(N-2): out bytes = total - payload[(m+1) % N]."""
        model = build_model()
        plan = ar_graph_plan(model.graph)
        runner = DistributedRunner(model, CLUSTER, plan, seed=0)
        transcript = run_and_capture(runner)
        requested, _ = batch_row_stats(runner, 1)
        row_bytes = EMB_DIM * 4
        payload = [r * row_bytes for r in requested]
        total_payload = sum(payload)
        loads = transcript.bytes_per_machine("allgatherv")
        for m in range(N):
            expected_out = total_payload - payload[(m + 1) % N]
            assert loads[m]["out"] == expected_out

    def test_total_gatherv_bytes_exact(self):
        """Every origin's payload crosses N-1 machine boundaries."""
        model = build_model()
        plan = ar_graph_plan(model.graph)
        runner = DistributedRunner(model, CLUSTER, plan, seed=0)
        transcript = run_and_capture(runner)
        requested, _ = batch_row_stats(runner, 1)
        row_bytes = EMB_DIM * 4
        total_payload = sum(r * row_bytes for r in requested)
        measured = transcript.total_network_bytes("allgatherv")
        assert measured == (N - 1) * total_payload
