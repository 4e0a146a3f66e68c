"""``python -m bench.compare A.json B.json``: B against A, metric by metric.

A and B are result files written by ``python -m bench`` (two runs of one
commit for repeatability, or parent and change for a review).  For every
workload x end-to-end metric it prints both values, how much worse B is
as a share of A, and the bound ``BENCHMARK.json`` fixes.  A pair whose
own block-to-block spread is wider than the bound is ``unresolved``: the
run cannot tell a regression of that size from noise.  Exits 1 when any
pair is out of bound.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

from bench.hygiene import REPO_ROOT


def block_spread(metric: Dict[str, object]) -> float:
    """Quartile distance across the run's blocks, as a share of the value."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        ma = a["workloads"][workload]["end_to_end"]["metrics"]
        mb = b["workloads"][workload]["end_to_end"]["metrics"]
        for decl in spec["end_to_end"]:
            va, vb = ma[decl["name"]], mb[decl["name"]]
            change = (vb["value"] - va["value"]) / abs(va["value"])
            worse = change if decl["better"] == "lower" else -change
            spread = max(block_spread(va), block_spread(vb))
            if va["value"] == vb["value"]:
                verdict = "identical"
            elif worse > decl["bound"]:
                verdict = "OUT OF BOUND"
            elif spread > decl["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            rows.append({"workload": workload, "metric": decl["name"],
                         "unit": va["unit"], "a": va["value"],
                         "b": vb["value"], "worse": worse, "spread": spread,
                         "bound": decl["bound"], "verdict": verdict})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    with open(argv[0]) as f:
        a = json.load(f)
    with open(argv[1]) as f:
        b = json.load(f)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = compare(a, b, spec)
    print(f"{'workload':<18}{'metric':<20}{'A':>14}{'B':>14} {'unit':<10}"
          f"{'B worse by':>11}{'spread':>8}{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<18}{r['metric']:<20}{r['a']:>14.6g}"
              f"{r['b']:>14.6g} {r['unit']:<10}{r['worse'] * 100:>10.2f}%"
              f"{r['spread'] * 100:>7.1f}%{r['bound'] * 100:>6.1f}%  "
              f"{r['verdict']}")
    bad = [r for r in rows if r["verdict"] == "OUT OF BOUND"]
    unresolved = sum(r["verdict"] == "unresolved" for r in rows)
    print(f"{len(rows)} pairs: {len(bad)} out of bound, "
          f"{unresolved} unresolved")
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())
