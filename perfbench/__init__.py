"""Benchmark of ``repro analyze`` and ``repro corpus``; entry point
``perfbench/run.py``."""
