"""CLI smoke tests."""

import pytest

from repro.cli import COMMANDS, _fmt, main
from repro.cluster.spec import ClusterSpec


@pytest.mark.parametrize("experiment", ["table1", "table4", "table6"])
def test_cli_runs_each_table(experiment, capsys):
    assert main([experiment, "--machines", "2", "--gpus", "2"]) == 0
    out = capsys.readouterr().out
    assert experiment.replace("table", "Table ") in out


def test_cli_fig9_small_cluster(capsys):
    assert main(["fig9", "--machines", "2", "--gpus", "2"]) == 0
    assert "normalized" in capsys.readouterr().out


# Per experiment: the printed cells of each row, keyed by the row's
# leading token(s), and the same cells made from the returned numbers.
PRINTED_CELLS = {
    "table1": lambda t: (t[0], t[4:]),
    "table2": lambda t: (t[0], t[1:]),
    "table4": lambda t: (t[0], t[1:]),
    "table6": lambda t: (t[0], t[2:4]),
    "fig8": lambda t: ((t[0], t[1]), t[2:]),
    "fig9": lambda t: (t[0], t[1:]),
}


def _table_cells(numbers):
    return {str(key): [_fmt(v) for v in row.values()]
            for key, row in numbers.items()}


RETURNED_CELLS = {
    "table1": _table_cells, "table2": _table_cells,
    "table4": _table_cells, "table6": _table_cells,
    "fig8": lambda n: {(m, label): [_fmt(v) for v in curve]
                       for m, by_label in n.items()
                       for label, curve in by_label.items()},
    "fig9": lambda n: {str(g): [f"{n[m]['parallax'][g]:.1f}x" for m in n]
                       for g in next(iter(n.values()))["parallax"]},
}


@pytest.mark.parametrize("experiment", sorted(COMMANDS))
def test_printed_cells_are_the_returned_numbers(experiment, capsys):
    """``benchmarks/`` asserts on what each experiment returns: every
    cell the CLI prints is the CLI formatter applied to that number."""
    numbers = COMMANDS[experiment](ClusterSpec(2, 2))
    printed = dict(
        PRINTED_CELLS[experiment]([t for t in line.split() if t != "/"])
        for line in capsys.readouterr().out.splitlines() if line.strip())
    expected = RETURNED_CELLS[experiment](numbers)
    assert expected
    assert {key: printed.get(key) for key in expected} == expected


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
