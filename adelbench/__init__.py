"""Benchmark harness for adelcat; see README.md in this directory."""
