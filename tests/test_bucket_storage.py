"""The bucket is the gradients' storage.

Contracts under test: in generated plans every member gradient of a
fused bucket is born in its region of the bucket's arena buffer, so the
pack copies nothing; the fold lands in a buffer the plan owns; dense
updates write the variables' own arrays -- except where a value read
from the variable is still used after the update, which the plan
decides at compile time.  None of it may move a bit, and a state
snapshot must not move after a later step.
"""

import threading
import tracemalloc

import numpy as np
import pytest
from reference_interpreter import interpreted_runner

from repro.cluster.spec import ClusterSpec
from repro.comm.transport import InMemoryTransport
from repro.core.backend import (
    MultiprocBackend,
    _make_worker_session,
    compile_rank_plan,
)
from repro.core.runner import DistributedRunner
from repro.core.transform import comm_ops
from repro.core.transform.plan import ar_graph_plan, hybrid_graph_plan
from repro.graph import Graph, Session, gradients, ops
from repro.graph.executor import DIRECT_OUT
from repro.graph.variables import Variable
from repro.nn.models import build_lm, build_resnet
from repro.nn.optimizers import (
    AdamOptimizer,
    GradientDescentOptimizer,
    MomentumOptimizer,
)

C2x1 = ClusterSpec(num_machines=2, gpus_per_machine=1)
SEED = 3
# The bench's ResNet (bench/training.py): three multi-MB buckets.
BENCH_RESNET = dict(batch_size=32, num_features=128, num_classes=10,
                    width=512, num_blocks=4)
SMALL_RESNET = dict(batch_size=4, num_features=8, num_classes=3, width=8,
                    num_blocks=2)


def resnet_runner(sizes=BENCH_RESNET, optimizer=None,
                  runner_cls=DistributedRunner):
    model = build_resnet(seed=SEED, **sizes)
    with model.graph.as_default():
        (optimizer or GradientDescentOptimizer(0.02)).update(
            gradients(model.loss))
    return runner_cls(model, C2x1, ar_graph_plan(model.graph),
                      seed=SEED)


def _ptr(a) -> int:
    return a.__array_interface__["data"][0]


def _counting_packs(copied):
    """A ``DIRECT_OUT["concat"]`` builder recording, per call, the bytes
    of inputs not already in their region of the out buffer."""
    real = DIRECT_OUT["concat"]

    def builder(op):
        fn = real(op)

        def pack(*args):
            *values, out = args
            offset, moved = 0, 0
            for v in values:
                if _ptr(v) != _ptr(out) + offset:
                    moved += v.nbytes
                offset += v.nbytes
            copied.append((op.name, moved))
            return fn(*args)

        return pack

    return builder


class TestGradientsAreBornInTheBucket:
    def test_bench_resnet_pack_copies_nothing(self, monkeypatch):
        copied = []
        monkeypatch.setitem(DIRECT_OUT, "concat", _counting_packs(copied))
        runner = resnet_runner()
        for i in range(3):  # the loop, then generated code
            runner.step(i)
        plan = runner.step_plans[0]
        bplan = plan._buffer_plan
        packs = [s for op, _k, _i, s, _e in plan.schedule
                 if op.op_type == "concat"]
        assert len(packs) == 6  # 3 buckets x 2 replicas
        fallbacks = []
        for c in packs:
            for j in plan.schedule[c][2]:
                producer = plan.schedule[j][2][0]  # through its reshape
                if bplan.views.get(producer, (None,))[0] != c:
                    fallbacks.append(plan.schedule[producer][0].name)
        assert fallbacks == [], f"members still copied: {fallbacks}"
        assert sorted(copied[-6:]) == sorted(
            (plan.schedule[c][0].name, 0) for c in packs)

    def test_steady_state_pack_and_fold_allocate_no_array(
            self, monkeypatch):
        peaks = {"pack": [], "fold": []}

        def measured(kind, fn):
            def call(*args, **kwargs):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = fn(*args, **kwargs)
                peaks[kind].append(tracemalloc.get_traced_memory()[1]
                                   - before)
                return result

            return call

        real_pack = DIRECT_OUT["concat"]
        monkeypatch.setitem(DIRECT_OUT, "concat",
                            lambda op: measured("pack", real_pack(op)))
        monkeypatch.setattr(comm_ops, "ring_allreduce",
                            measured("fold", comm_ops.ring_allreduce))
        runner = resnet_runner()
        for i in range(3):
            runner.step(i)
        for samples in peaks.values():
            samples.clear()
        tracemalloc.start()
        try:
            runner.step(3)
        finally:
            tracemalloc.stop()
        assert len(peaks["pack"]) == 6 and len(peaks["fold"]) == 3
        # The smallest bucket is 1 MB; what is left is a few list and
        # array headers.
        assert max(peaks["pack"] + peaks["fold"]) < 16 * 1024, peaks

    def test_rank_plans_fold_into_their_buffer_and_pack_in_place(
            self, monkeypatch):
        copied, folds = [], []
        monkeypatch.setitem(DIRECT_OUT, "concat", _counting_packs(copied))
        real_fold = comm_ops.ring_allreduce

        def fold(arrays, **kwargs):
            result = real_fold(arrays, **kwargs)
            out = kwargs.get("out")
            folds.append(out is not None and np.shares_memory(result[0],
                                                              out))
            return result

        monkeypatch.setattr(comm_ops, "ring_allreduce", fold)
        runner = resnet_runner(SMALL_RESNET)
        reference = resnet_runner(SMALL_RESNET)
        transport = InMemoryTransport(runner.num_replicas)
        fetch_ops = [t.op for t in runner._step_fetches[0]]
        ranks = []
        for rank in range(runner.num_replicas):
            session = _make_worker_session(runner.transformed, SEED, rank,
                                           transport, 5.0)
            ranks.append((session, compile_rank_plan(session, fetch_ops)))
        for step in range(3):
            copied.clear()
            folds.clear()
            losses = {}

            def work(rank, session, plan):
                feeds = dict(zip(runner._feed_names[rank],
                                 runner.shards[rank].batch(
                                     runner.model.batch_size, step)))
                losses[rank] = float(session.run_plan(plan, feeds)[0])

            threads = [threading.Thread(target=work, args=(r, *pair))
                       for r, pair in enumerate(ranks)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            want = reference.step(step).replica_losses
            assert [losses[r] for r in range(len(ranks))] == want
        assert folds and all(folds)
        assert copied and all(moved == 0 for _name, moved in copied)
        for _session, plan in ranks:
            assert plan._buffer_plan.views and plan._buffer_plan.folds


class TestInPlaceUpdates:
    def test_dense_variables_keep_their_arrays_across_steps(self):
        runner = resnet_runner(SMALL_RESNET)
        for i in range(2):
            runner.step(i)
        stores = runner.session.replica_stores

        def arrays():
            return {(r, name): store.read(name)
                    for r, store in enumerate(stores)
                    for name in store.names()}

        before = arrays()
        values = {key: a.copy() for key, a in before.items()}
        for i in range(2, 5):
            runner.step(i)
        after = arrays()
        for key, a in before.items():
            assert after[key] is a
            assert _ptr(after[key]) == _ptr(a)
        assert any(not np.array_equal(after[key], values[key])
                   for key in values)

    @pytest.mark.parametrize("optimizer", [
        lambda: MomentumOptimizer(0.05, 0.9),
        lambda: AdamOptimizer(0.01),
    ], ids=["momentum", "adam"])
    def test_in_place_optimizers_match_the_interpreter(self, optimizer):
        losses = {}
        for engine, runner_cls in (("compiled", DistributedRunner),
                                   ("interpreted", interpreted_runner)):
            runner = resnet_runner(SMALL_RESNET, optimizer(), runner_cls)
            losses[engine] = [runner.step(i).replica_losses
                              for i in range(5)]
            if engine == "compiled":
                plan = runner.step_plans[0]
                in_place = plan._buffer_plan.in_place
                state = runner.logical_state()
            else:
                reference = runner.logical_state()
        assert losses["compiled"] == losses["interpreted"]
        updates = [s for op, _k, _i, s, _e in plan.schedule
                   if op.attrs.get("is_update")]
        assert updates and set(updates) == set(in_place)
        for name, value in reference.items():
            np.testing.assert_array_equal(state[name], value)

    def test_a_read_used_after_its_update_keeps_the_old_value(self):
        """The plan orders ``z = 2 * w`` after ``w``'s update: the update
        must run out of place, so ``z`` still sees the value the step
        started from."""
        g = Graph()
        rng = np.random.default_rng(0)
        with g.as_default():
            w = Variable("w", (4, 3),
                         initializer=rng.standard_normal((4, 3)).astype(
                             np.float32))
            loss = ops.mse_loss(w.tensor, ops.constant(
                np.zeros((4, 3), np.float32)))
            train = GradientDescentOptimizer(0.5).update(gradients(loss))
            z = ops.scale(w.tensor, 2.0, name="z")
        sess = Session(g)
        plan = sess.compile([train, z])
        positions = {op.name: s for op, _k, _i, s, _e in plan.schedule}
        assert positions["z"] > positions["update/w"]
        for _ in range(3):  # the loop, then generated code
            start = sess.read_variable("w").copy()
            _, got = sess.run([train, z])
            np.testing.assert_array_equal(got, start * 2.0)
        assert plan._buffer_plan is not None
        assert positions["update/w"] not in plan._buffer_plan.in_place


@pytest.mark.parametrize("backend", ["inproc", "shm"])
def test_logical_state_is_a_snapshot(backend):
    """Values ``logical_state()`` returned do not change when training
    goes on: sparse updates write embedding rows in place and dense
    updates whole arrays."""
    model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                     hidden=10, num_partitions=3, seed=0)
    with model.graph.as_default():
        GradientDescentOptimizer(0.4).update(gradients(model.loss))
    runner = DistributedRunner(
        model, C2x1, hybrid_graph_plan(model.graph),
        seed=SEED,
        backend=("inproc" if backend == "inproc"
                 else MultiprocBackend(transport=backend)))
    try:
        runner.step(0)
        state = runner.logical_state()
        taken = {name: value.copy() for name, value in state.items()}
        for i in range(1, 4):
            runner.step(i)
        for name, value in state.items():
            np.testing.assert_array_equal(value, taken[name], err_msg=name)
        later = runner.logical_state()
        assert any(not np.array_equal(later[name], taken[name])
                   for name in taken)
    finally:
        runner.close()
