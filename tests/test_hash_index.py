"""Vertex hash index unit tests."""

from repro.index.hash_index import HashIndex


def test_get_or_create():
    idx = HashIndex()
    value, created = idx.get_or_create((1, 2), lambda: "fresh")
    assert created and value == "fresh"
    value, created = idx.get_or_create((1, 2), lambda: "other")
    assert not created and value == "fresh"
    assert len(idx) == 1


def test_get_and_contains():
    idx = HashIndex()
    idx.put((1,), "x")
    assert idx.get((1,)) == "x"
    assert idx.get((2,)) is None
    assert (1,) in idx
    assert (2,) not in idx


def test_remove():
    idx = HashIndex()
    idx.put((1,), "x")
    idx.remove((1,))
    assert len(idx) == 0


def test_values_iteration():
    idx = HashIndex()
    idx.put((1,), "a")
    idx.put((2,), "b")
    assert sorted(idx.values()) == ["a", "b"]
    assert dict(idx.items()) == {(1,): "a", (2,): "b"}
