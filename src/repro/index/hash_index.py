"""Hash index over join-graph vertices (§4.3).

One per range table: maps the vertex key (the tuple of the table's join
attribute values) to the vertex object, used to find-or-create the vertex
corresponding to a tuple during insertion and deletion.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

V = TypeVar("V")


class HashIndex:
    """A thin dict wrapper with find-or-create semantics."""

    def __init__(self) -> None:
        self._map: Dict[tuple, object] = {}

    def get(self, key: tuple) -> Optional[object]:
        return self._map.get(key)

    def get_or_create(self, key: tuple,
                      factory: Callable[[], V]) -> Tuple[V, bool]:
        """Return ``(value, created)`` for ``key``, creating if absent."""
        value = self._map.get(key)
        if value is not None:
            return value, False
        value = factory()
        self._map[key] = value
        return value, True

    def put(self, key: tuple, value: object) -> None:
        self._map[key] = value

    def remove(self, key: tuple) -> None:
        del self._map[key]

    def __contains__(self, key: tuple) -> bool:
        return key in self._map

    def __len__(self) -> int:
        return len(self._map)

    def values(self) -> Iterator[object]:
        return iter(self._map.values())

    def items(self):
        return self._map.items()
