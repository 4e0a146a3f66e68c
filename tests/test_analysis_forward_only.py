"""Analysis soundness on forward-only (serving-shaped) plans.

A serving plan fetches only forward outputs: no collectives, no sends,
no update ops in its schedule.  Every analysis must stay sound on that
shape -- in particular the accounting conservation check, which would
otherwise report the *entire* variable inventory as unaccounted bytes
(the schedule legitimately carries zero collective payloads), and the
deadlock analysis, which must accept an empty send/recv multiset.
"""

import pytest

from repro.analysis import forward_fetch_ops, verify_plan
from repro.analysis.verifier import default_fetch_ops
from repro.cluster.spec import ClusterSpec
from repro.core.transform.plan import (
    ar_graph_plan,
    graph_plan,
    hybrid_graph_plan,
)
from repro.core.transform.transform import transform_graph
from repro.graph.executor import CompiledPlan, plan_order
from repro.graph.gradients import gradients
from repro.nn.models import build_lm
from repro.nn.optimizers import GradientDescentOptimizer

C2x2 = ClusterSpec(num_machines=2, gpus_per_machine=2)

PLAN_BUILDERS = {
    "hybrid": hybrid_graph_plan,
    "ps": lambda g: graph_plan(g, "opt_ps"),
    "ar": ar_graph_plan,
}


def make_transformed(plan_key="hybrid"):
    model = build_lm(batch_size=4, vocab_size=40, seq_len=3, emb_dim=8,
                     hidden=10, num_partitions=3, seed=0)
    with model.graph.as_default():
        GradientDescentOptimizer(0.4).update(gradients(model.loss))
    return transform_graph(model.graph, model.loss, C2x2,
                           PLAN_BUILDERS[plan_key](model.graph),
                           verify=False)


@pytest.mark.parametrize("plan_key", sorted(PLAN_BUILDERS))
class TestForwardOnlySoundness:
    def test_forward_fetches_induce_a_trainfree_schedule(self, plan_key):
        """The premise: a loss-only fetch set schedules no collective
        and no update op -- the shape a serving plan compiles to."""
        transformed = make_transformed(plan_key)
        order = plan_order(transformed.graph, forward_fetch_ops(transformed))
        assert not any(op.attrs.get("is_update") for op in order)
        assert not any(op.op_type in ("allreduce", "fused_allreduce",
                                      "allgatherv", "vjp")
                       for op in order)

    def test_all_analyses_clean_on_forward_only_plans(self, plan_key):
        """No analysis may report a finding on a forward-only plan (the
        accounting regression: conservation used to demand the full
        variable inventory of a schedule that syncs nothing)."""
        transformed = make_transformed(plan_key)
        fetch_ops = forward_fetch_ops(transformed)
        plan = CompiledPlan(transformed.graph, fetch_ops)
        plan._generate()
        report = verify_plan(transformed, fetch_ops, plan=plan)
        assert report.findings == []
        assert report.stats["accounting"]["forward_only"] is True

    def test_full_fetches_still_run_conservation(self, plan_key):
        """The forward-only escape hatch must not swallow the real
        check: a training fetch set still exercises conservation."""
        transformed = make_transformed(plan_key)
        fetch_ops = default_fetch_ops(transformed)
        report = verify_plan(transformed, fetch_ops)
        assert report.findings == []
        assert report.stats["accounting"]["forward_only"] is False
