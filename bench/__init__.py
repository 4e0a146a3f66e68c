"""The repo's benchmark: four workloads, nine end-to-end metrics, per-layer
probes -- all measured from outside, through public ``repro`` API.

Run ``python -m bench --seed 0`` from the repo root; see ``bench/README.md``.
This package must stay importable without NumPy: the entry point pins the
BLAS thread count *before* NumPy loads.
"""
