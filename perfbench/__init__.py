"""Benchmark of the repro simulator: see README.md."""
