"""Reference graph interpreter: the seed executor `src/` had before the
compiled engine became the only way to run a graph (ISSUE 19).

An oracle, not product code: a memoized topological walk that resolves
fetches, sorts the graph and dispatches every kernel through the
registries on every call -- a pure op's one body as
``DIRECT[op_type](op)(*inputs)``, any other op's ``FORWARD`` kernel.  It
shares nothing with ``repro.graph.executor`` but those kernel tables --
no plan, no kernel binding or specialization, no static edge table, no
arena, no generated code -- so ``Session.run`` agreeing with it bit for
bit (values, variable state, Transcript bytes) is evidence about the
engine, not about shared helpers.
"""

import numpy as np

from repro.core.backend import InprocBackend
from repro.core.runner import DistributedRunner
from repro.core.transform.comm_ops import COLLECTIVE_OP_TYPES
from repro.graph.executor import DIRECT
from repro.graph.graph import Tensor
from repro.graph.ops import FORWARD
from repro.tensor.dense import as_array, nbytes_of


def _record_edges(session, op, inputs):
    """Cross-machine data movement into *op*: one transfer per (producer,
    consumer device) pair per run; collectives record their own ring."""
    if op.op_type in COLLECTIVE_OP_TYPES or op.device is None:
        return
    for tensor, value in zip(op.inputs, inputs):
        producer = tensor.op
        if (value is None or producer.device is None
                or producer.op_type in COLLECTIVE_OP_TYPES
                or producer.device.machine == op.device.machine):
            continue
        edge = (producer.name, op.device.machine, op.device.device_type,
                op.device.index)
        if edge in session._seen_edges:
            continue
        session._seen_edges.add(edge)
        session.transcript.record(
            tag=f"edge/{producer.op_type}",
            src_machine=producer.device.machine,
            dst_machine=op.device.machine, nbytes=nbytes_of(value))


def interpret(session, fetches, feed_dict=None):
    """Evaluate *fetches* against *session*'s graph and variable stores;
    one value, or a list matching a list/tuple of fetches.  A feed
    overrides any op's output (its kernel is skipped)."""
    single = not isinstance(fetches, (list, tuple))
    targets = [session._resolve(f) for f in ([fetches] if single else fetches)]
    feeds = {}
    for key, value in (feed_dict or {}).items():
        name = key.name if isinstance(key, Tensor) else str(key)
        feeds[name] = value if isinstance(value, np.ndarray) else as_array(value)

    session._begin_run()
    session.run_cache = {}
    distributed = hasattr(session, "transcript")
    memo = {}
    for op in session.graph.topo_sort(targets):
        if op.name in feeds:
            memo[op.name] = feeds[op.name]
            continue
        builder = DIRECT.get(op.op_type)
        kernel = FORWARD.get(op.op_type)
        if builder is None and kernel is None:
            raise NotImplementedError(
                f"no kernel registered for op type {op.op_type!r} "
                f"(op {op.name!r})")
        inputs = [memo[t.name] for t in op.inputs]
        session._current_op = op
        if distributed:
            _record_edges(session, op, inputs)
        memo[op.name] = (builder(op)(*inputs) if builder is not None
                         else kernel(op, inputs, session))
    session._current_op = None
    results = [memo[op.name] for op in targets]
    return results[0] if single else results


class InterpretedBackend(InprocBackend):
    """Steps a runner through :func:`interpret` instead of its compiled
    step plans (none are compiled: the backend is not named "inproc")."""

    name = "interpreted"

    def run_step(self, iteration):
        runner = self.runner
        feeds = runner.feeds_for(iteration)
        if runner.transformed.replica_train_ops is None:
            results = interpret(runner.session, runner._step_fetches[0], feeds)
            return [float(v) for v in results[:-1]]
        return [float(interpret(runner.session, fetches, feeds)[0])
                for fetches in runner._step_fetches]


def interpreted_runner(model, cluster, plan, **kwargs):
    """A :class:`DistributedRunner` whose every step is interpreted."""
    return DistributedRunner(model, cluster, plan,
                             backend=InterpretedBackend(), **kwargs)
