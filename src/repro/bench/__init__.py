"""Structure-memory accounting for Table 2.

The paper's §7 figures are re-measured by ``benchmarks/paper.py``, which
writes one seeded record; this package keeps what that record reads
from the library: the deep size of an engine's structures, the
stand-in for the paper's peak RSS (see :mod:`repro.bench.memory`).
"""

from repro.bench.memory import deep_size_bytes, engine_memory_bytes

__all__ = [
    "deep_size_bytes",
    "engine_memory_bytes",
]
