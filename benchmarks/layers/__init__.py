"""Layer-ladder benchmark: one seeded op stream through every layer.

``python -m benchmarks.layers --help`` (or ``python3
benchmarks/layers/run.py``) — see ``README.md`` in this directory for
the workloads, every metric name and how to read ``spans.jsonl``.
"""
