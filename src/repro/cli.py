"""Command-line interface: regenerate paper experiments from the shell.

Usage::

    python -m repro.cli table1            # PS vs AR throughput
    python -m repro.cli table2            # partition sweep
    python -m repro.cli table4            # architecture ablation
    python -m repro.cli table6            # sparsity-degree sweep
    python -m repro.cli fig8              # scaling curves
    python -m repro.cli fig9              # normalized throughput
    python -m repro.cli all               # everything
    python -m repro.cli table2 --machines 4 --gpus 4   # custom cluster
    python -m repro.cli verify            # static plan verifier sweep
    python -m repro.cli launch --rendezvous tcp://HOST:PORT --rank R \
        --world-size N                    # one process of a TCP fleet

Timing lives elsewhere: ``python -m bench`` (``BENCHMARK.json``) is the
repo's one benchmark harness.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Callable, Dict

from repro.cluster.plan import ARCHITECTURES, profile_plan
from repro.cluster.simulator import throughput
from repro.cluster.spec import ClusterSpec
from repro.nn.profiles import (
    PAPER_PROFILES,
    TABLE6_ALPHA,
    constructed_lm_profile,
)

# The experiment grid: the partition counts the paper uses for the
# sparse models at 48 GPUs, Table 6's count and Figures 8/9's machine
# axis.  Each experiment prints its table and returns the numbers it
# printed, keyed by model (Table 6: length), then architecture label
# (Table 2: partition count).
PAPER_PARTITIONS = {"lm": 128, "nmt": 64}
TABLE6_PARTITIONS = 64
MACHINES = (1, 2, 4, 8)


def _fmt(value: float) -> str:
    return f"{value / 1000:,.1f}k" if value >= 10_000 else f"{value:,.0f}"


def _throughputs(profile, archs, partitions, cluster) -> Dict[str, float]:
    return {ARCHITECTURES[arch].label: throughput(
        profile, profile_plan(profile, arch, partitions), cluster)
        for arch in archs}


def _scaling(clusters) -> Dict[str, Dict[str, list]]:
    """Per model and architecture label, the throughput on each of
    *clusters*."""
    return {name: {ARCHITECTURES[arch].label: [
        throughput(profile, profile_plan(
            profile, arch, PAPER_PARTITIONS.get(name, 1)), c)
        for c in clusters] for arch in ("ps", "ar", "hybrid")}
        for name, profile in PAPER_PROFILES().items()}


def table1(cluster: ClusterSpec) -> dict:
    print(f"\nTable 1 — PS vs AR throughput "
          f"({cluster.total_gpus} simulated GPUs)")
    print(f"{'model':<14}{'dense':>9}{'sparse':>9}{'alpha':>7}"
          f"{'PS':>10}{'AR':>10}")
    rows = {}
    for name, profile in PAPER_PROFILES().items():
        rows[name] = _throughputs(profile, ("ps", "ar"),
                                  PAPER_PARTITIONS.get(name, 1), cluster)
        print(f"{name:<14}{profile.dense_elements / 1e6:>8.1f}M"
              f"{profile.sparse_elements / 1e6:>8.1f}M"
              f"{profile.alpha_model:>7.2f}"
              + "".join(f"{_fmt(v):>10}" for v in rows[name].values()))
    return rows


def table2(cluster: ClusterSpec) -> dict:
    partitions = (8, 16, 32, 64, 128, 256)
    print("\nTable 2 — TF-PS throughput vs partition count")
    print(f"{'model':<8}" + "".join(f"P={p:<9}" for p in partitions))
    rows = {}
    for name in ("lm", "nmt"):
        profile = PAPER_PROFILES()[name]
        rows[name] = {
            p: throughput(profile, profile_plan(profile, "ps", p), cluster)
            for p in partitions
        }
        print(f"{name:<8}"
              + "".join(f"{_fmt(v):<11}" for v in rows[name].values()))
    return rows


def table4(cluster: ClusterSpec) -> dict:
    labels = ("AR", "NaivePS", "OptPS", "HYB")
    print("\nTable 4 — architecture ablation")
    print(f"{'model':<8}" + "".join(f"{label:<12}" for label in labels))
    rows = {}
    for name in ("lm", "nmt"):
        rows[name] = _throughputs(PAPER_PROFILES()[name],
                                  ("ar", "ps", "opt_ps", "hybrid"),
                                  PAPER_PARTITIONS[name], cluster)
        print(f"{name:<8}"
              + "".join(f"{_fmt(v):<12}" for v in rows[name].values()))
    return rows


def table6(cluster: ClusterSpec) -> dict:
    print("\nTable 6 — sparsity-degree sweep (constructed LM)")
    print(f"{'length':>7}{'alpha':>7}{ARCHITECTURES['hybrid'].label:>12}"
          f"{ARCHITECTURES['ps'].label:>12}{'speedup':>9}")
    rows = {}
    for length in sorted(TABLE6_ALPHA, reverse=True):
        rows[length] = _throughputs(constructed_lm_profile(length),
                                    ("hybrid", "ps"), TABLE6_PARTITIONS,
                                    cluster)
        px, ps = rows[length].values()
        print(f"{length:>7}{TABLE6_ALPHA[length]:>7.2f}{_fmt(px):>12}"
              f"{_fmt(ps):>12}{px / ps:>8.2f}x")
    return rows


def fig8(cluster: ClusterSpec) -> dict:
    print(f"\nFigure 8 — throughput vs machines (1/2/4/8, "
          f"{cluster.gpus_per_machine} GPUs each)")
    curves = _scaling([ClusterSpec(n, cluster.gpus_per_machine)
                       for n in MACHINES])
    for name, by_label in curves.items():
        for label, curve in by_label.items():
            print(f"{name:<14}{label:<10}"
                  + " / ".join(_fmt(v) for v in curve))
    return curves


def fig9(cluster: ClusterSpec) -> dict:
    """Also returns TF-PS and Horovod, keyed by GPU count: each curve
    over the same plan's throughput on one GPU."""
    gpus = [n * cluster.gpus_per_machine for n in MACHINES]
    curves = _scaling([ClusterSpec(1, 1)]
                      + [ClusterSpec(n, cluster.gpus_per_machine)
                         for n in MACHINES])
    speedups = {name: {label: {g: t / base for g, t in zip(gpus, rest)}
                       for label, (base, *rest) in by_label.items()}
                for name, by_label in curves.items()}
    print("\nFigure 9 — Parallax normalized throughput (vs 1 GPU)")
    print(f"{'GPUs':<6}" + "".join(f"{n:<14}" for n in speedups))
    for g in gpus:
        row = [f"{by_label['parallax'][g]:.1f}x"
               for by_label in speedups.values()]
        print(f"{g:<6}" + "".join(f"{v:<14}" for v in row))
    return speedups


def _quickstart_model():
    """The quickstart hybrid LM graph (partitioned sparse embedding on
    PS, dense LSTM/softmax on AllReduce), gradients and updates built."""
    from repro.graph.gradients import gradients
    from repro.nn.models import build_lm
    from repro.nn.optimizers import GradientDescentOptimizer

    model = build_lm(batch_size=8, vocab_size=200, seq_len=4,
                     emb_dim=16, hidden=24, num_partitions=4, seed=0)
    with model.graph.as_default():
        gvs = gradients(model.loss)
        GradientDescentOptimizer(0.5).update(gvs)
    return model


def _matrix_models():
    """The four evaluation archs at test scale, ready for a runner."""
    from repro.graph.gradients import gradients
    from repro.nn.models import (
        build_inception,
        build_lm,
        build_nmt,
        build_resnet,
    )
    from repro.nn.optimizers import GradientDescentOptimizer

    def _finish(model):
        with model.graph.as_default():
            gvs = gradients(model.loss)
            GradientDescentOptimizer(0.1).update(gvs)
        return model

    return {
        "lm": lambda: _finish(build_lm(
            batch_size=4, vocab_size=40, seq_len=3, emb_dim=8, hidden=10,
            num_partitions=3, seed=0)),
        "nmt": lambda: _finish(build_nmt(
            batch_size=4, src_vocab=30, tgt_vocab=30, src_len=2, tgt_len=2,
            emb_dim=6, hidden=6, num_partitions=2, seed=1)),
        "resnet": lambda: _finish(build_resnet(
            batch_size=4, num_features=8, num_classes=3, width=8,
            num_blocks=1, seed=0)),
        "inception": lambda: _finish(build_inception(
            batch_size=4, num_features=8, num_classes=3, width=8,
            num_modules=1, seed=0)),
    }


def _matrix_plans():
    from repro.core.transform.plan import graph_plan

    return {
        "hybrid": lambda g: graph_plan(g, "hybrid"),
        "ps": lambda g: graph_plan(g, "ps"),
        "ar": lambda g: graph_plan(g, "ar"),
    }


def cli_launch(args, cluster: ClusterSpec) -> int:
    """``repro.cli launch``: one process of a rendezvous-bootstrapped
    TCP fleet.

    ``--rank R`` (R >= 0) runs worker rank R: bind a listener, join the
    ``--rendezvous tcp://host:port`` bootstrap, then serve the standard
    command loop until the controller's shutdown.  ``--rank -1`` runs
    the controller: start the rendezvous server at that address, wait
    for ``--world-size`` workers to join and barrier, then train the
    quickstart workload on the remote fleet for ``--iters`` steps.
    ``--check-identity`` additionally trains the same workload in
    process and asserts the per-step losses match bit for bit.
    """
    if args.rendezvous is None or args.rank is None \
            or args.world_size is None:
        raise SystemExit("launch: --rendezvous, --rank and --world-size "
                         "are required")
    if args.world_size < 1:
        raise SystemExit("launch: --world-size must be >= 1")
    if not -1 <= args.rank < args.world_size:
        raise SystemExit("launch: --rank must be -1 (controller) or in "
                         "[0, --world-size)")

    if args.rank >= 0:
        from repro.core.backend import run_remote_worker

        run_remote_worker(args.rendezvous, args.rank, args.world_size,
                          listen_host=args.listen_host,
                          join_timeout=args.join_timeout)
        return 0

    # Controller role.  The cluster shape must hand every replica to
    # one launched worker.
    if cluster.total_gpus != args.world_size:
        raise SystemExit(
            f"launch: cluster has {cluster.total_gpus} replicas but "
            f"--world-size is {args.world_size}; pass matching "
            f"--machines/--gpus")
    from repro.core.backend import RemoteWorkerBackend
    from repro.core.runner import DistributedRunner
    from repro.core.transform.plan import hybrid_graph_plan

    def train(backend):
        model = _quickstart_model()
        runner = DistributedRunner(model, cluster,
                                   hybrid_graph_plan(model.graph),
                                   seed=args.seed, backend=backend)
        try:
            return [runner.step(i).replica_losses
                    for i in range(args.iters)]
        finally:
            runner.close()

    reference = train("inproc") if args.check_identity else None
    backend = RemoteWorkerBackend(args.rendezvous,
                                  start_timeout=args.join_timeout,
                                  listen_host=args.listen_host)
    remote_losses = train(backend)
    counters = backend.serialization_totals

    identical = (reference == remote_losses
                 if reference is not None else None)
    report = {
        "workload": "launch_quickstart",
        "world_size": args.world_size,
        "iterations": args.iters,
        "final_mean_loss": (sum(remote_losses[-1])
                            / len(remote_losses[-1])),
        "losses_bit_identical": identical,
        "wire_bytes": counters.get("wire_bytes", 0),
        "wire_msgs": counters.get("wire_msgs", 0),
    }
    print(json.dumps(report, indent=2))
    if identical is False:
        print("ERROR: remote fleet losses diverged from inproc")
        return 1
    return 0


def cli_verify(cluster: ClusterSpec) -> int:
    """Statically verify every arch x plan x backend combo's schedule.

    Runs the plan verifier (:mod:`repro.analysis`) over the full
    matrix -- four evaluation archs, three plan families -- for both
    execution backends: the in-process engine gets the single-schedule
    analyses (congruence, alias, accounting) over its global plan; the
    multiprocess backend gets deadlock/matching, congruence and
    accounting, and the alias audit over every rank's compiled plan --
    what its workers actually run.  Prints one line per combo plus any
    findings, then the verification CPU time as a fraction of compile
    CPU time (transform + plan compilation + code generation).

    Exits 1 on any finding, 0 otherwise.
    """
    from repro.analysis import verify_plan
    from repro.analysis.alias import audit_buffer_plan
    from repro.analysis.verifier import default_fetch_ops
    from repro.core.backend import _make_worker_session, compile_rank_plan
    from repro.core.transform.transform import transform_graph
    from repro.graph.executor import CompiledPlan

    # Which analyses of the global plan bear on each backend; the
    # multiprocess rows add the per-rank alias audits.
    backend_analyses = {
        "inproc": ("congruence", "alias", "accounting"),
        "multiproc": ("deadlock", "congruence", "accounting"),
    }
    combos = 0
    findings_total = 0
    verify_seconds = 0.0
    compile_seconds = 0.0
    for model_key, model_builder in _matrix_models().items():
        for plan_key, plan_builder in _matrix_plans().items():
            model = model_builder()
            start = time.process_time()
            transformed = transform_graph(
                model.graph, model.loss, cluster,
                plan_builder(model.graph), verify=False)
            fetch_ops = default_fetch_ops(transformed)
            plan = CompiledPlan(transformed.graph, fetch_ops)
            rank_plans = [
                compile_rank_plan(_make_worker_session(transformed, 0, rank),
                                  fetch_ops)
                for rank in range(transformed.num_replicas)]
            for compiled in (plan, *rank_plans):
                compiled._generate()
            compile_s = time.process_time() - start
            compile_seconds += compile_s
            start = time.process_time()
            report = verify_plan(transformed, fetch_ops, plan=plan)
            rank_findings = [finding for rank_plan in rank_plans
                             for finding in audit_buffer_plan(rank_plan)[0]]
            verify_seconds += time.process_time() - start
            findings_total += len(report.findings) + len(rank_findings)
            # A recv ahead of where its value is needed serialises the
            # bucket exchange without breaking anything a test can see.
            early_recvs = report.stats["deadlock"].get("early_recvs", 0)
            if early_recvs:
                findings_total += 1
            for backend, analyses in backend_analyses.items():
                findings = [f for f in report.findings
                            if f.analysis in analyses]
                if backend == "multiproc":
                    findings += rank_findings
                status = ("ok" if not findings
                          else f"{len(findings)} finding(s)")
                if backend == "multiproc":
                    status += (f", early_recvs {early_recvs}, "
                               f"{len(rank_plans)} rank plans audited")
                backend_ms = sum(report.timings.get(a, 0.0)
                                 for a in analyses) * 1e3
                print(f"verify {model_key}/{plan_key}/{backend}: {status} "
                      f"({backend_ms:.1f}ms verify, "
                      f"{compile_s * 1e3:.1f}ms compile)")
                for finding in findings:
                    print(finding.render())
                combos += 1

    fraction = verify_seconds / compile_seconds if compile_seconds else 0.0
    print(f"\nverify: {combos} combos, {findings_total} finding(s), "
          f"verification at {fraction:.1%} of compile time")
    return 1 if findings_total else 0


COMMANDS: Dict[str, Callable[[ClusterSpec], dict]] = {
    "table1": table1, "table2": table2, "table4": table4, "table6": table6,
    "fig8": fig8, "fig9": fig9,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate Parallax (EuroSys '19) experiments.",
    )
    parser.add_argument("experiment",
                        choices=sorted(COMMANDS) + ["all", "launch",
                                                    "verify"],
                        help="which table/figure to regenerate, 'launch' "
                             "for one process of a rendezvous-"
                             "bootstrapped TCP fleet, or 'verify' to "
                             "statically verify every arch x plan x "
                             "backend schedule")
    # Analytic tables default to the paper's cluster; verify defaults to
    # a small one (it transforms and compiles every combo).
    parser.add_argument("--machines", type=int, default=None)
    parser.add_argument("--gpus", type=int, default=None)
    parser.add_argument("--iters", type=int, default=60,
                        help="launch controller: training steps to run")
    parser.add_argument("--seed", type=int, default=0,
                        help="launch controller: runner seed")
    parser.add_argument("--rendezvous", default=None, metavar="URL",
                        help="launch: tcp://host:port bootstrap address "
                             "(the controller binds it; workers join it)")
    parser.add_argument("--rank", type=int, default=None,
                        help="launch: worker rank in [0, world-size), "
                             "or -1 for the controller")
    parser.add_argument("--world-size", type=int, default=None,
                        help="launch: total number of worker replicas")
    parser.add_argument("--listen-host", default="127.0.0.1",
                        help="launch: address this process' transport "
                             "listener binds")
    parser.add_argument("--join-timeout", type=float, default=60.0,
                        help="launch: seconds to wait for the rendezvous "
                             "to assemble")
    parser.add_argument("--check-identity", action="store_true",
                        help="launch controller: also train in process "
                             "and assert the remote fleet's losses are "
                             "bit-identical")
    args = parser.parse_args(argv)
    default_machines, default_gpus = (
        (2, 2) if args.experiment == "verify" else (8, 6))
    cluster = ClusterSpec(
        default_machines if args.machines is None else args.machines,
        default_gpus if args.gpus is None else args.gpus,
    )
    if args.experiment == "verify":
        return cli_verify(cluster)
    if args.experiment == "launch":
        # Default the cluster to one machine per worker when the shape
        # was not given explicitly.
        if args.machines is None and args.gpus is None \
                and args.world_size is not None:
            cluster = ClusterSpec(args.world_size, 1)
        return cli_launch(args, cluster)
    if args.experiment == "all":
        for fn in COMMANDS.values():
            fn(cluster)
    else:
        COMMANDS[args.experiment](cluster)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
