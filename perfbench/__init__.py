"""The repository's benchmark: three workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --help`` from the root of a checkout;
``BENCHMARK.json`` names the workloads and metrics.
"""
