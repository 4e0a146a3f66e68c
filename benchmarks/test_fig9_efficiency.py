"""Figure 9: normalized throughput (scaling efficiency) of Parallax.

Paper values (throughput at k GPUs / throughput at 1 GPU):

    GPUs          resnet50  inception  lm     nmt
    6             5.4       5.6        2.8    3.5
    12            10.5      10.9       5.4    6.5
    24            20.5      21.4       8.6    11.9
    48            39.8      43.6       9.4    18.4

and the comparison: at 48 GPUs TF-PS reaches 30.4/28.6/3.4/9.1 and
Horovod 39.8/44.4/1.6/6.1.
"""

import pytest

from conftest import _mark_benchmark, print_table
from repro.cli import fig9

PAPER_PARALLAX = {
    "resnet50": {6: 5.4, 12: 10.5, 24: 20.5, 48: 39.8},
    "inception_v3": {6: 5.6, 12: 10.9, 24: 21.4, 48: 43.6},
    "lm": {6: 2.8, 12: 5.4, 24: 8.6, 48: 9.4},
    "nmt": {6: 3.5, 12: 6.5, 24: 11.9, 48: 18.4},
}
PAPER_48 = {
    "tf_ps": {"resnet50": 30.4, "inception_v3": 28.6, "lm": 3.4, "nmt": 9.1},
    "horovod": {"resnet50": 39.8, "inception_v3": 44.4, "lm": 1.6,
                "nmt": 6.1},
}


@pytest.fixture(scope="module")
def speedups(paper_cluster):
    return fig9(paper_cluster)


@pytest.fixture(scope="module")
def parallax_eff(speedups):
    return {name: by_arch["parallax"] for name, by_arch in speedups.items()}


def test_fig9_rows(benchmark, parallax_eff):
    _mark_benchmark(benchmark)
    rows = []
    for gpus in (6, 12, 24, 48):
        row = [gpus]
        for name in parallax_eff:
            row.append(f"{parallax_eff[name][gpus]:.1f} "
                       f"({PAPER_PARALLAX[name][gpus]:.1f})")
        rows.append(row)
    print_table("Figure 9: Parallax normalized throughput (simulated "
                "(paper))", ["GPUs"] + list(parallax_eff), rows)


def test_dense_models_near_linear(benchmark, parallax_eff):
    _mark_benchmark(benchmark)
    """ResNet/Inception scale to >= 60% efficiency at 48 GPUs."""
    for name in ("resnet50", "inception_v3"):
        assert parallax_eff[name][48] > 0.6 * 48

    # And better efficiency than the NLP models, which stress comm more.
    for dense in ("resnet50", "inception_v3"):
        for sparse in ("lm", "nmt"):
            assert parallax_eff[dense][48] > parallax_eff[sparse][48]


def test_nlp_efficiency_ordering(benchmark, parallax_eff):
    _mark_benchmark(benchmark)
    """Paper: NMT (18.4x) scales better than LM (9.4x) at 48 GPUs."""
    assert parallax_eff["nmt"][48] > parallax_eff["lm"][48]


def test_efficiency_monotone_in_gpus(benchmark, parallax_eff):
    _mark_benchmark(benchmark)
    for name, values in parallax_eff.items():
        ordered = [values[g] for g in (6, 12, 24, 48)]
        assert ordered == sorted(ordered), name


def test_parallax_beats_others_at_48(benchmark, speedups):
    _mark_benchmark(benchmark)
    """Fig 9 caption: Parallax 48-GPU normalized throughput beats TF-PS
    and Horovod on the sparse models and ties Horovod on dense ones."""
    for name in ("lm", "nmt"):
        values = {label: curve[48]
                  for label, curve in speedups[name].items()}
        assert values["parallax"] > values["tf_ps"]
        assert values["parallax"] > values["horovod"]


def test_bench_normalized_throughput(benchmark, paper_cluster):
    """Time regenerating the whole figure (one round: it takes ~1 s)."""
    result = benchmark.pedantic(fig9, args=(paper_cluster,), rounds=1,
                                iterations=1)["nmt"]["parallax"]
    assert result[48] > 0
