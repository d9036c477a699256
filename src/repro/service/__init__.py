"""repro.service — the concurrent serving layer.

Wraps a :class:`~repro.core.SynopsisManager` (bare, or behind its
:class:`~repro.persist.PersistentManager` wrapper) behind a
single-writer/multi-reader
:class:`~repro.service.runtime.SynopsisService`: writers enqueue into a
bounded queue drained by one ingest thread in coalescing micro-batches,
readers dereference immutable epoch-stamped snapshot views and never
block the writer.  :mod:`repro.service.http` adds a stdlib JSON-over-HTTP
front end (``repro serve``); :mod:`repro.service.client` the equivalent
in-process client.
"""

from repro.service.http import ServiceHTTPServer
from repro.service.client import LocalServiceClient
from repro.service.runtime import (
    OVERFLOW_POLICIES,
    ReadView,
    ServiceConfig,
    SynopsisService,
)

__all__ = [
    "SynopsisService",
    "ServiceConfig",
    "ReadView",
    "OVERFLOW_POLICIES",
    "ServiceHTTPServer",
    "LocalServiceClient",
]
