"""Hash index over join-graph vertices (§4.3).

One per range table: maps the vertex key (the tuple of the table's join
attribute values) to the vertex object, used to find-or-create the vertex
corresponding to a tuple during insertion and deletion.
"""

from __future__ import annotations

from typing import Callable, Tuple, TypeVar

V = TypeVar("V")


class HashIndex(dict):
    """A dict with find-or-create semantics (the hot loops of the join
    graph read and write it as the plain dict it is)."""

    __slots__ = ()

    def get_or_create(self, key: tuple,
                      factory: Callable[[], V]) -> Tuple[V, bool]:
        """Return ``(value, created)`` for ``key``, creating if absent."""
        value = self.get(key)
        if value is not None:
            return value, False
        value = self[key] = factory()
        return value, True

    def put(self, key: tuple, value: object) -> None:
        self[key] = value

    def remove(self, key: tuple) -> None:
        del self[key]
