"""Benchmark of the adsorbtext pipeline; run it with `python3 perfbench/run.py`."""
