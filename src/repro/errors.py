"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""


class ReproError(Exception):
    """Base class of all errors raised by this package.

    ``ops_applied`` is set on an error that comes out of
    ``SynopsisManager.apply_batch``: how many ops of the batch had been
    applied in full before the one that failed (a failing batch stops
    where per-op application stops).  WAL replay reads it to find the
    logged record a failing op belonged to.  ``None`` anywhere else.
    """

    ops_applied = None


class SchemaError(ReproError):
    """A schema definition is invalid (duplicate columns, bad key, ...)."""


class CatalogError(ReproError):
    """A catalog object (table, column) is missing or duplicated."""


class QueryError(ReproError):
    """A query is malformed or references unknown tables/columns."""


class ParseError(QueryError):
    """The SQL text could not be parsed into a join query."""


class QueryParseError(ParseError):
    """A parse failure carrying the source position of the offence.

    ``position`` is the 0-based character offset into the SQL text where
    the offending token starts (``None`` when the failure has no single
    anchor, e.g. an empty string), and ``token`` is the offending token
    text when one was read.  The HTTP front end surfaces both in its
    400 reply so clients can point at the error.
    """

    def __init__(self, message: str, *, position=None, token=None,
                 sql=None):
        super().__init__(message)
        self.position = position
        self.token = token
        self.sql = sql


class PlanError(ReproError):
    """The planner could not produce a valid plan for the query."""


class IntegrityError(ReproError):
    """An update violates a declared constraint (e.g. a foreign key)."""


class TupleNotFoundError(ReproError):
    """A TID does not identify a live tuple."""


class SynopsisError(ReproError):
    """Invalid synopsis specification or an operation on a synopsis failed."""


class InvalidArgumentError(ReproError, ValueError):
    """A public entry point was called with an out-of-contract argument.

    Also a :class:`ValueError` so callers that predate the unified
    hierarchy (``except ValueError``) keep working.
    """


class IndexKeyError(ReproError, KeyError):
    """An aggregate-index operation was handed a node handle that is not
    in the tree (already deleted).

    Also a :class:`KeyError` for backwards compatibility with callers
    that predate the unified hierarchy.
    """


class PersistError(ReproError):
    """Durable state could not be captured, written, or read back."""


class RecoveryError(PersistError):
    """Recovered state failed verification against the snapshot's record."""


class ServiceError(ReproError):
    """The concurrent serving layer rejected or failed an operation."""


class ServiceOverloadedError(ServiceError):
    """The service's bounded ingest queue is full (backpressure).

    Raised by ``overflow_policy="reject"`` immediately, and by
    ``overflow_policy="block"`` when the configured block timeout
    elapses before queue space frees up.
    """


class ServiceClosedError(ServiceError):
    """The service has been closed; no further writes are accepted."""


class ReplicationError(ReproError):
    """Shipped replication state is missing, torn, or inconsistent."""


class FollowerReadOnlyError(ServiceError):
    """A write was submitted to a follower replica.

    Followers replay the leader's shipped WAL and serve reads only;
    the HTTP front end maps this to ``403`` (with a ``Location`` header
    naming the leader when one is configured).
    """

    def __init__(self, message: str, leader_url=None):
        super().__init__(message)
        self.leader_url = leader_url
