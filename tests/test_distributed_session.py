"""DistributedSession: store routing and transfer-edge accounting."""

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.runner import DistributedRunner, DistributedSession
from repro.core.transform.plan import graph_plan, hybrid_graph_plan
from repro.graph import gradients
from repro.graph.session import (
    VariableStore,
    split_replica_prefix,
    variable_rng,
)
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)


def make_runner(plan_fn=hybrid_graph_plan, **kwargs):
    defaults = dict(batch_size=4, vocab_size=30, seq_len=2, emb_dim=6,
                    hidden=8, num_partitions=2, seed=0)
    defaults.update(kwargs)
    model = build_lm(**defaults)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.2).update(gvs)
    return DistributedRunner(model, CLUSTER, plan_fn(model.graph), seed=1)


class TestStoreRouting:
    def test_ps_variables_live_in_ps_store(self):
        runner = make_runner()
        session = runner.session
        for shard in runner.transformed.ps_placement:
            value = session.ps_store.read(shard)
            assert value is not None

    def test_each_store_holds_only_its_routed_variables(self):
        runner = make_runner()
        session = runner.session
        graph = runner.transformed.graph
        routed = {}
        for name in graph.variables:
            routed.setdefault(split_replica_prefix(name)[0], set()).add(name)
        assert set(session.ps_store.names()) == routed[None]
        assert [set(store.names()) for store in session.replica_stores] \
            == [routed[r] for r in range(runner.num_replicas)]
        # Seeding is per variable name, so the split moves no value: the
        # logical state is what one store of every variable would hold.
        full = VariableStore(graph, seed=1)
        state = runner.logical_state()
        logical = runner.transformed.logical_variable_names
        assert set(state) == set(logical)
        for base, name in logical.items():
            np.testing.assert_array_equal(state[base], full.read(name))

    def test_replica_variables_isolated_per_store(self):
        runner = make_runner()
        session = runner.session
        name = "rep0/lstm/kernel"
        original = session.replica_stores[0].read(name).copy()
        # Mutating replica 1's copy of ITS variable must not affect rep0.
        session.replica_stores[1].write(
            "rep1/lstm/kernel",
            np.zeros_like(session.replica_stores[1].read("rep1/lstm/kernel")),
        )
        np.testing.assert_array_equal(session.replica_stores[0].read(name),
                                      original)

    def test_replica_initial_values_identical(self):
        runner = make_runner()
        a = runner.replica_variable(0, "lstm/kernel")
        b = runner.replica_variable(1, "lstm/kernel")
        np.testing.assert_array_equal(a, b)

    def test_inspection_helpers_reject_wrong_kind(self):
        runner = make_runner()
        with pytest.raises(KeyError):
            runner.replica_variable(0, "embedding/part_0")  # PS variable
        with pytest.raises(KeyError):
            runner.server_variable("lstm/kernel")  # AR variable


class TestLazyStore:
    """A store seeds each variable at its first read, per name."""

    def graph_and_names(self):
        runner = make_runner()
        graph = runner.transformed.graph
        return graph, [name for name in graph.variables
                       if split_replica_prefix(name)[0] == 1]

    def test_reverse_reads_give_the_eager_values(self):
        graph, names = self.graph_and_names()
        store = VariableStore(graph, seed=1, names=names)
        assert not store._values
        got = {name: store.read(name) for name in reversed(names)}
        for name in names:
            want = graph.variables[name].initial_value(
                variable_rng(name, 1))
            np.testing.assert_array_equal(got[name], want, err_msg=name)
            assert got[name].dtype == want.dtype

    def test_write_before_read_checks_shape_and_name(self):
        graph, names = self.graph_and_names()
        store = VariableStore(graph, seed=1, names=names)
        name = names[0]
        shape = graph.variables[name].shape
        with pytest.raises(ValueError):
            store.write(name, np.zeros(tuple(d + 1 for d in shape)))
        with pytest.raises(KeyError):
            store.write("rep0/" + name[len("rep1/"):], np.zeros(shape))
        value = np.full(shape, 0.5, dtype=np.float32)
        store.write(name, value)
        np.testing.assert_array_equal(store.read(name), value)
        assert list(store._values) == [name]

    def test_names_and_snapshot_cover_every_routed_name(self):
        graph, names = self.graph_and_names()
        store = VariableStore(graph, seed=1, names=names)
        assert store.names() == names
        eager = {name: graph.variables[name].initial_value(
            variable_rng(name, 1)) for name in names}
        snapshot = store.snapshot()
        assert list(snapshot) == names
        for name in names:
            np.testing.assert_array_equal(snapshot[name], eager[name])
        assert store.names() == names


class TestEdgeAccounting:
    def test_transcript_resets_seen_edges_per_run(self):
        runner = make_runner()
        runner.step(0)
        first = runner.transcript.total_network_bytes("edge/shard_lookup")
        runner.step(1)
        second = runner.transcript.total_network_bytes("edge/shard_lookup")
        # Second iteration recorded fresh pulls (monotone growth).
        assert second > first

    def test_pull_deduped_per_consumer_device(self):
        """A dense PS variable read by many ops on one GPU counts once."""
        runner = make_runner(plan_fn=lambda g: graph_plan(g, "ps"))
        runner.step(0)
        runner.transcript.clear()
        runner.step(1)
        pulls = [t for t in runner.transcript.transfers
                 if t.tag == "edge/read_var"]
        # lstm/kernel is consumed by multiple timestep matmuls per
        # replica; each (variable, replica-device) pair appears once.
        keyed = {}
        for t in pulls:
            keyed.setdefault((t.src_machine, t.dst_machine, t.nbytes),
                             0)
            keyed[(t.src_machine, t.dst_machine, t.nbytes)] += 1
        kernel_bytes = 14 * 4 * 8 * 4  # (in+hid) x 4*hidden x float32
        kernel_pulls = [t for t in pulls if t.nbytes == kernel_bytes]
        # 2 remote GPUs pull the kernel (2 on the server's own machine
        # are local): exactly 2 transfers.
        assert len(kernel_pulls) == 2

    def test_collective_edges_not_double_counted(self):
        runner = make_runner()
        runner.step(0)
        runner.transcript.clear()
        runner.step(1)
        # allreduce input edges (grads from other replicas) must not be
        # recorded by the generic edge recorder.
        generic_from_grads = [
            t for t in runner.transcript.transfers
            if t.tag.startswith("edge/") and "allreduce" in t.tag
        ]
        assert not generic_from_grads

    def test_session_requires_transformed_graph(self):
        runner = make_runner()
        # The public API: DistributedSession wraps a TransformedGraph.
        session = DistributedSession(runner.transformed, seed=2)
        assert session.cluster is CLUSTER
