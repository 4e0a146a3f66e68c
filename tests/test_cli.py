"""CLI smoke tests."""

import pytest

from repro.cli import main


@pytest.mark.parametrize("experiment", ["table1", "table4", "table6"])
def test_cli_runs_each_table(experiment, capsys):
    assert main([experiment, "--machines", "2", "--gpus", "2"]) == 0
    out = capsys.readouterr().out
    assert experiment.replace("table", "Table ") in out


def test_cli_fig9_small_cluster(capsys):
    assert main(["fig9", "--machines", "2", "--gpus", "2"]) == 0
    assert "normalized" in capsys.readouterr().out


def test_cli_rejects_unknown():
    with pytest.raises(SystemExit):
        main(["table99"])


def test_cli_table2_custom_cluster(capsys):
    assert main(["table2", "--machines", "4", "--gpus", "2"]) == 0
    out = capsys.readouterr().out
    assert "P=128" in out


def test_cli_bench_experiment_is_gone():
    """Timing lives in ``python -m bench``; the legacy families are not a
    CLI experiment any more."""
    with pytest.raises(SystemExit):
        main(["bench"])


def test_cli_verify_clean_matrix(capsys):
    """Exit 1 means findings; 2 (verification over its compile-time
    budget) is host timing, not a tier-1 contract."""
    assert main(["verify", "--machines", "2", "--gpus", "1"]) != 1
    out = capsys.readouterr().out
    assert "24 combos, 0 finding(s)" in out


@pytest.mark.parametrize("rank", ["-2", "2"])
def test_cli_launch_rejects_out_of_range_rank(rank):
    """Only -1 names the controller: any other negative rank must not
    bind the rendezvous address."""
    with pytest.raises(SystemExit, match="--rank"):
        main(["launch", "--rendezvous", "tcp://127.0.0.1:1",
              "--rank", rank, "--world-size", "2"])
