"""Graph transformation: structure, placement, and rule application."""

import numpy as np
import pytest

from repro.cluster.plan import SyncMethod
from repro.cluster.spec import ClusterSpec
from repro.core.transform import classify_variables, transform_graph
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.graph import Graph, gradients, ops
from repro.graph.device import DeviceSpec
from repro.nn import layers
from repro.nn.models import build_lm, build_resnet
from repro.nn.optimizers import GradientDescentOptimizer

CLUSTER = ClusterSpec(num_machines=2, gpus_per_machine=2)


def lm_model(num_partitions=2):
    model = build_lm(batch_size=4, vocab_size=30, seq_len=2, emb_dim=6,
                     hidden=8, num_partitions=num_partitions, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.1).update(gvs)
    return model


def resnet_model():
    model = build_resnet(batch_size=4, num_features=8, num_classes=3,
                         width=8, num_blocks=1, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.1).update(gvs)
    return model


class TestClassification:
    def test_lm_classification(self):
        model = lm_model()
        classes = classify_variables(model.graph)
        assert classes["embedding/part_0"] is True
        assert classes["lstm/kernel"] is False
        assert classes["softmax/kernel"] is False

    def test_dense_model_all_dense(self):
        model = resnet_model()
        assert not any(classify_variables(model.graph).values())


class TestHybridStructure:
    @pytest.fixture()
    def transformed(self):
        model = lm_model()
        plan = hybrid_graph_plan(model.graph)
        return transform_graph(model.graph, model.loss, CLUSTER, plan)

    def test_one_loss_per_replica(self, transformed):
        assert len(transformed.replica_losses) == 4

    def test_placeholders_replicated(self, transformed):
        assert set(transformed.placeholder_names) == {"tokens", "targets"}
        assert len(transformed.placeholder_names["tokens"]) == 4

    def test_sparse_variables_on_servers(self, transformed):
        g = transformed.graph
        for shard in ("embedding/part_0", "embedding/part_1"):
            read = g.variables[shard].read_op
            assert read.device is not None
            assert not read.device.is_gpu
            assert transformed.ps_placement[shard] == read.device.machine

    def test_dense_variables_replicated_per_gpu(self, transformed):
        names = transformed.replica_variables["lstm/kernel"]
        assert names == [f"rep{r}/lstm/kernel" for r in range(4)]
        g = transformed.graph
        devices = [g.variables[n].read_op.device for n in names]
        assert devices == [
            DeviceSpec.gpu(0, 0), DeviceSpec.gpu(0, 1),
            DeviceSpec.gpu(1, 0), DeviceSpec.gpu(1, 1),
        ]

    def test_shard_lookups_on_owning_server(self, transformed):
        g = transformed.graph
        lookups = [op for op in g.operations if op.op_type == "shard_lookup"]
        assert lookups, "partitioned lookup was not rewritten"
        for op in lookups:
            shard_var = op.inputs[0].op.attrs["variable"]
            assert op.device == DeviceSpec.cpu(
                transformed.ps_placement[shard_var])

    def test_stitch_on_worker(self, transformed):
        stitches = [op for op in transformed.graph.operations
                    if op.op_type == "stitch"]
        assert len(stitches) == 4  # one per replica
        assert all(op.device.is_gpu for op in stitches)

    def test_allreduce_per_dense_var_per_replica(self, transformed):
        """Each dense variable is a segment of exactly one bucket, and
        each bucket has one fused op per replica."""
        ar_ops = [op for op in transformed.graph.operations
                  if op.op_type == "fused_allreduce"]
        groups = {op.attrs["group"] for op in ar_ops}
        assert groups and len(ar_ops) == len(groups) * 4
        for op in ar_ops:
            assert len(op.inputs) == 4  # every replica's bucket
            assert op.device.is_gpu
        for r in range(4):
            segments = [name for op in ar_ops if op.attrs["replica"] == r
                        for name, _size in op.attrs["segments"]]
            assert sorted(segments) == sorted(transformed.replica_variables)

    def test_global_agg_on_variable_server(self, transformed):
        g = transformed.graph
        for op in g.operations:
            if op.op_type != "global_agg":
                continue
            var = op.name.split("global_agg/")[1]
            assert op.device == DeviceSpec.cpu(transformed.ps_placement[var])

    def test_local_agg_groups_machine_gpus(self, transformed):
        local = [op for op in transformed.graph.operations
                 if op.op_type == "local_agg"]
        assert local
        for op in local:
            assert not op.device.is_gpu
            assert len(op.inputs) == CLUSTER.gpus_per_machine

    def test_ps_update_on_server(self, transformed):
        g = transformed.graph
        for op in g.operations:
            if not op.attrs.get("is_update"):
                continue
            var = op.attrs["variable"]
            if var in transformed.ps_placement:
                assert op.device == DeviceSpec.cpu(
                    transformed.ps_placement[var])

    def test_train_op_groups_all_updates(self, transformed):
        update_count = sum(1 for op in transformed.graph.operations
                           if op.attrs.get("is_update"))
        assert len(transformed.train_op.op.inputs) == update_count
        # PS vars: one update each; AR vars: one per replica.
        expected = len(transformed.ps_placement) + \
            4 * len(transformed.replica_variables)
        assert update_count == expected


class TestRuleVariants:
    def test_ps_plan_has_no_collectives(self):
        model = lm_model()
        plan = graph_plan(model.graph, "ps")
        tg = transform_graph(model.graph, model.loss, CLUSTER, plan)
        kinds = {op.op_type for op in tg.graph.operations}
        assert "fused_allreduce" not in kinds and "allgatherv" not in kinds
        assert not tg.replica_variables

    def test_naive_ps_has_no_local_agg_and_chief_agg(self):
        model = lm_model()
        plan = graph_plan(model.graph, "ps")
        tg = transform_graph(model.graph, model.loss, CLUSTER, plan)
        kinds = [op.op_type for op in tg.graph.operations]
        assert "local_agg" not in kinds
        for op in tg.graph.operations:
            if op.op_type == "global_agg":
                assert op.device == DeviceSpec.cpu(0)  # chief machine

    def test_ar_plan_uses_allgatherv_for_sparse(self):
        model = lm_model()
        plan = ar_graph_plan(model.graph)
        tg = transform_graph(model.graph, model.loss, CLUSTER, plan)
        kinds = {op.op_type for op in tg.graph.operations}
        assert "allgatherv" in kinds and "fused_allreduce" in kinds
        assert "shard_lookup" not in kinds  # embeddings stay replicated
        assert not tg.ps_placement

    def test_dense_model_hybrid_is_pure_ar(self):
        model = resnet_model()
        plan = hybrid_graph_plan(model.graph)
        tg = transform_graph(model.graph, model.loss, CLUSTER, plan)
        assert not tg.ps_placement
        kinds = {op.op_type for op in tg.graph.operations}
        assert "fused_allreduce" in kinds
        assert "global_agg" not in kinds

    def test_sparse_as_dense_override_densifies(self):
        model = lm_model(num_partitions=1)
        overrides = {"embedding": True}
        plan = hybrid_graph_plan(model.graph, sparse_as_dense=overrides)
        tg = transform_graph(model.graph, model.loss, CLUSTER, plan)
        kinds = {op.op_type for op in tg.graph.operations}
        assert "densify" in kinds
        assert "embedding" in tg.replica_variables
        assert not tg.ps_placement


class TestValidation:
    def test_missing_optimizer_rejected(self):
        g = Graph()
        with g.as_default():
            v = layers.get_variable("v", (3,))
            loss = ops.mean(v.tensor)
            gradients(loss)
        plan = hybrid_graph_plan(g)
        with pytest.raises(ValueError, match="optimizer"):
            transform_graph(g, loss, CLUSTER, plan)

    def test_missing_gradient_rejected(self):
        model = lm_model()
        plan = hybrid_graph_plan(model.graph)
        plan.methods["ghost_var"] = SyncMethod.PS
        with pytest.raises(ValueError, match="ghost_var"):
            transform_graph(model.graph, model.loss, CLUSTER, plan)

    def test_loss_graph_mismatch_rejected(self):
        model = lm_model()
        other = lm_model()
        plan = hybrid_graph_plan(model.graph)
        with pytest.raises(ValueError):
            transform_graph(model.graph, other.loss, CLUSTER, plan)


class TestTransformedGraphSerialization:
    """The serialization contract of the multiprocess backend: a
    TransformedGraph pickle round trip preserves structure, seeded
    initial state, and execution semantics bit for bit."""

    def _round_trip(self, transformed):
        import pickle

        return pickle.loads(pickle.dumps(transformed))

    def test_structure_survives_round_trip(self):
        model = lm_model()
        plan = hybrid_graph_plan(model.graph)
        t = transform_graph(model.graph, model.loss, CLUSTER, plan)
        t2 = self._round_trip(t)
        assert [op.name for op in t.graph.operations] \
            == [op.name for op in t2.graph.operations]
        assert [t_.name for t_ in t.replica_losses] \
            == [t_.name for t_ in t2.replica_losses]
        assert t.train_op.name == t2.train_op.name
        assert t.ps_placement == t2.ps_placement
        assert t.placeholder_names == t2.placeholder_names
        assert t.replica_variables == t2.replica_variables
        assert t.logical_variable_names == t2.logical_variable_names
        assert t2.graph.version == t.graph.version

    def test_seeded_initialization_is_bit_identical(self):
        from repro.graph.session import VariableStore

        model = lm_model()
        plan = hybrid_graph_plan(model.graph)
        t = transform_graph(model.graph, model.loss, CLUSTER, plan)
        t2 = self._round_trip(t)
        s1 = VariableStore(t.graph, seed=9)
        s2 = VariableStore(t2.graph, seed=9)
        assert s1.names() == s2.names()
        for name in s1.names():
            np.testing.assert_array_equal(s1.read(name), s2.read(name),
                                          err_msg=name)

    def test_training_on_unpickled_graph_is_bit_identical(self):
        from repro.core.runner import DistributedRunner, DistributedSession

        model = lm_model()
        plan = hybrid_graph_plan(model.graph)
        runner = DistributedRunner(model, CLUSTER, plan, seed=1)
        want = [runner.step(i).replica_losses for i in range(2)]

        t2 = self._round_trip(
            transform_graph(model.graph, model.loss, CLUSTER, plan))
        session = DistributedSession(t2, seed=1)
        fetches = list(t2.replica_losses) + [t2.train_op]
        got = []
        for i in range(2):
            feeds = runner.feeds_for(i)
            # Same base placeholder routing: transformed names match.
            results = session.run(fetches, feeds)
            got.append([float(v) for v in results[:-1]])
        assert got == want

    def test_partitioned_variable_collection_survives(self):
        import pickle

        model = lm_model(num_partitions=3)
        g2 = pickle.loads(pickle.dumps(model.graph))
        (pvar,) = g2.get_collection("partitioned_variables")
        assert pvar.num_partitions == 3
        assert [p.name for p in pvar.partitions] \
            == [f"{pvar.name}/part_{i}" for i in range(3)]
        assert all(p.graph is g2 for p in pvar.partitions)
        # The optimizer collection decodes to a working instance.
        (opt,) = g2.collections["optimizer"]
        assert opt.learning_rate == 0.1
