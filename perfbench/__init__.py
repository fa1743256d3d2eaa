"""Seeded, closed-loop benchmark of flowdisc; run it as ``python3 perfbench/run.py``."""
