"""Benchmark harness for the deflation simulator (see NOTES.md)."""
