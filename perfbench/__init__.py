"""Benchmark of the repro federation and center-matrix workloads; see README.md."""
