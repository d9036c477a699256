"""Structure-memory accounting (Table 2).

The paper reports peak RSS of its C++ engine.  In Python, process RSS is
dominated by the interpreter, so we instead measure the deep object-graph
size of the engine's data structures with ``sys.getsizeof`` — range tables,
indexes, graph vertices, synopsis state — which preserves the *relative*
SJoin-opt vs SJ comparison Table 2 makes (SJoin stores extra weights but
consolidates duplicate-key tuples into shared vertices).
"""

from __future__ import annotations

import sys
from typing import Iterable, Set


def deep_size_bytes(*roots: object) -> int:
    """Total ``sys.getsizeof`` over the object graphs of ``roots``.

    Objects are counted once even when reachable from several roots;
    shared leaves (interned ints/strings) are counted once, matching how
    they occupy memory.
    """
    seen: Set[int] = set()
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None:
            continue
        seen.add(id(obj))
        try:
            total += sys.getsizeof(obj)
        except TypeError:  # pragma: no cover - exotic objects
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        if hasattr(obj, "__slots__"):
            for slot in obj.__slots__:
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total


def engine_memory_bytes(engine) -> int:
    """Deep size of an engine's tables + indexes + synopsis state.

    Works for both :class:`SJoinEngine` (graph, hash indexes, aggregate
    trees, combined-node runtimes — a combined node has no heap of its
    own) and :class:`SymmetricJoinEngine` (ordinary indexes); the shared
    base-table storage is included for both, as in Table 2 ("the total
    space of the range tables and the indexes").
    """
    roots = [engine.synopsis]
    db = getattr(engine, "db", None)
    if db is not None:
        roots.extend(db.table(name) for name in db.table_names())
    graph = getattr(engine, "graph", None)
    if graph is not None:  # SJoin
        roots.append(graph.hash_indexes)
        roots.append(graph.trees)
    combined = getattr(engine, "_combined", None)
    if combined:
        roots.append(combined)
    indexes = getattr(engine, "_indexes", None)
    if indexes is not None:  # SJ
        roots.append(indexes)
        roots.append(engine._handles)
    return deep_size_bytes(*roots)
