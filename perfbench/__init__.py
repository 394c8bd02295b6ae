"""Benchmark of the worldfunc package; run perfbench/run.py."""
