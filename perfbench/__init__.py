"""Closed-loop benchmark for gkcover; run it with ``python3 perfbench/run.py``."""
