"""Benchmark of tsagg: end-to-end CLI timings and per-module spans.

Run it with ``python3 tsbench/run.py --help`` from the repository root.
"""
