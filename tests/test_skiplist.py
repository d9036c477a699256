"""The retired-backend contract for ``skiplist``.

The aggregate skip list backend is retired from the registry (the AVL
backend dominates it on every benchmark and the registry carries the
maintenance cost of one balanced aggregate index, not two).  What this
file pins is the *contract* of retirement — not the dead module's
internals:

1. the registry rejects the name with an actionable migration message;
2. persisted states that name ``skiplist`` are refused the same way
   (the only states that ever pinned it are format version 1, which
   3.0 does not read);
3. the module itself stays importable (the import matrix in
   ``test_api_surface.py`` covers that) so old pickles and downstream
   imports fail soft, not hard.
"""

import pytest

from repro import Column, Database, SynopsisSpec, TableSchema, parse_query
from repro.errors import IndexBackendError
from repro.index.api import (
    RETIRED_BACKENDS,
    available_backends,
    resolve_backend,
    retired_fallback,
)


def make_plan():
    from repro.query.planner import plan_query

    db = Database()
    db.create_table(TableSchema("r", [Column("a")]))
    db.create_table(TableSchema("s", [Column("a")]))
    q = parse_query("SELECT * FROM r, s WHERE r.a = s.a", db)
    return db, q, plan_query(q, db)


class TestRegistryRejection:
    def test_skiplist_is_declared_retired(self):
        assert "skiplist" in RETIRED_BACKENDS
        assert "skiplist" not in available_backends()
        assert retired_fallback("skiplist") == "avl"

    def test_resolve_fails_with_migration_pointer(self):
        with pytest.raises(IndexBackendError, match="retired"):
            resolve_backend("skiplist")
        # the message must tell the caller what to do instead
        with pytest.raises(IndexBackendError, match="avl"):
            resolve_backend("skiplist")

    def test_graph_construction_rejects_the_name(self):
        from repro.graph.join_graph import WeightedJoinGraph

        _, _, plan = make_plan()
        with pytest.raises(IndexBackendError, match="retired"):
            WeightedJoinGraph(plan, index_backend="skiplist")
        # unknown names still get the ordinary unknown-backend error,
        # and IndexBackendError is-a ValueError for pre-registry callers
        with pytest.raises(ValueError):
            WeightedJoinGraph(plan, index_backend="btree")
        with pytest.raises(IndexBackendError, match="fenwick"):
            WeightedJoinGraph(plan, index_backend="btree")

    def test_every_retired_name_has_a_live_fallback(self):
        for name in RETIRED_BACKENDS:
            assert retired_fallback(name) in available_backends()


class TestPersistedStateFallback:
    """Format version 2 never pinned ``skiplist``: a state naming it is
    refused like any other use of the retired name (states written when
    it was live are version 1 and fail the version gate first)."""

    def test_captured_state_pinning_skiplist_is_rejected(self):
        from repro.core.config import MaintainerConfig
        from repro.core.maintainer import JoinSynopsisMaintainer
        from repro.persist import capture_maintainer, restore_maintainer

        db = Database()
        db.create_table(TableSchema("r", [Column("a")]))
        db.create_table(TableSchema("s", [Column("a")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM r, s WHERE r.a = s.a",
            MaintainerConfig(spec=SynopsisSpec.fixed_size(4), seed=3))
        state = capture_maintainer(m)
        state["index_backend"] = "skiplist"
        with pytest.raises(IndexBackendError, match="retired"):
            restore_maintainer(db, state)

    def test_unknown_backend_in_state_still_fails(self):
        """Garbage backend names stay loud too."""
        from repro.core.config import MaintainerConfig
        from repro.core.maintainer import JoinSynopsisMaintainer
        from repro.persist import capture_maintainer, restore_maintainer

        db = Database()
        db.create_table(TableSchema("r", [Column("a")]))
        db.create_table(TableSchema("s", [Column("a")]))
        m = JoinSynopsisMaintainer(
            db, "SELECT * FROM r, s WHERE r.a = s.a",
            MaintainerConfig(seed=3))
        state = capture_maintainer(m)
        state["index_backend"] = "btree"
        with pytest.raises(IndexBackendError):
            restore_maintainer(db, state)
