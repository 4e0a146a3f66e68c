"""Smoke test of the benchmark's contract (collected by the tier-1 run).

Runs ``python -m bench --smoke --workload NAME`` for every workload -- in
fresh interpreters with a clean environment, side by side to stay well
under 20 s -- and checks that what is emitted is exactly what
``BENCHMARK.json`` declares.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CLEAN_ENV = {"PATH": os.environ.get("PATH", "")}


def bench(*args, cwd=ROOT, **kwargs):
    return subprocess.Popen([sys.executable, "-m", "bench", *args], cwd=cwd,
                            env=CLEAN_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, **kwargs)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    running = {w: bench("--smoke", "--workload", w, "--out-dir", str(out / w))
               for w in WORKLOADS}
    reports = {}
    for workload, process in running.items():
        output, _ = process.communicate(timeout=120)
        assert process.returncode == 0, output
        reports[workload] = json.loads(
            (out / workload / "result.seed0.json").read_text())
    return reports


def test_declaration_is_within_the_contract():
    assert SPEC["paths"] == ["bench"]
    assert len(WORKLOADS) == 4
    assert len(SPEC["end_to_end"]) == 9
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    bounds = [m["bound"] for m in SPEC["end_to_end"]]
    assert all(0 < b <= 0.25 for b in bounds) and setup["bound"] == max(bounds)


def test_declared_tables_match_the_code():
    from bench import harness

    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in SPEC[key]] == list(table.items())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_alone_and_emits_what_is_declared(smoke, workload):
    report = smoke[workload]
    assert list(report["workloads"]) == [workload]
    assert {"nproc", "python", "numpy", "blas_threads", "git_sha",
            "seed"} <= set(report["fingerprint"])
    assert report["fingerprint"]["blas_threads"] == 1
    for key in ("end_to_end", "per_layer"):
        run = report["workloads"][workload][key]
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
        emitted = [(name, m["unit"]) for name, m in run["metrics"].items()]
        assert emitted == [(m["name"], m["unit"]) for m in SPEC[key]]
    assert all(m["value"] != 0 for m in
               report["workloads"][workload]["end_to_end"]["metrics"].values())
    trace = json.loads(Path(
        report["workloads"][workload]["per_layer"]["trace_file"]).read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_one_run_ends_in_the_drivers_json_line(tmp_path):
    process = bench("--workload", "lm_serve_open", "--seed", "3", "--seconds",
                    "1", "--trace", "0", "--smoke", "--out-dir", str(tmp_path))
    output, _ = process.communicate(timeout=60)
    assert process.returncode == 0, output
    line = json.loads(output.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = bench("--workload", "lm_serve_open", "--seed", "0", "--seconds",
                    "1", "--trace", "0", cwd=tmp_path)
    output, _ = process.communicate(timeout=60)
    assert process.returncode != 0
    assert '"metrics"' not in output
