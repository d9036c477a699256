"""Core: the SJoin engine, the SJ baseline, and the synopsis framework.

Public entry point: :class:`repro.core.maintainer.JoinSynopsisMaintainer`
(also re-exported at the package root), which wires a database, a parsed
join query, a synopsis specification and one of the engines together.
"""

from repro.core.synopsis import (
    SYNOPSIS_FAMILIES,
    BernoulliSynopsis,
    FixedSizeWithReplacement,
    FixedSizeWithoutReplacement,
    SubsetSynopsis,
    SynopsisSpec,
    WeightedWithReplacement,
    family_of_kind,
)
from repro.core.config import ENGINES, MaintainerConfig
from repro.core.sjoin import SJoinEngine
from repro.core.stats_api import (
    BatchResult,
    DeleteOp,
    InsertOp,
    MaintainerStats,
    ManagerStats,
    OpOutcome,
    UpdateOp,
)
from repro.core.symmetric_join import SymmetricJoinEngine
from repro.core.maintainer import JoinSynopsisMaintainer
from repro.core.manager import SynopsisManager, SynopsisTarget

__all__ = [
    "SynopsisSpec",
    "FixedSizeWithoutReplacement",
    "FixedSizeWithReplacement",
    "BernoulliSynopsis",
    "WeightedWithReplacement",
    "SubsetSynopsis",
    "SYNOPSIS_FAMILIES",
    "family_of_kind",
    "ENGINES",
    "MaintainerConfig",
    "SJoinEngine",
    "SymmetricJoinEngine",
    "JoinSynopsisMaintainer",
    "SynopsisManager",
    "SynopsisTarget",
    "BatchResult",
    "OpOutcome",
    "MaintainerStats",
    "ManagerStats",
    "InsertOp",
    "DeleteOp",
    "UpdateOp",
]
