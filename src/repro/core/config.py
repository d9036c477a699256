"""The unified construction surface: :class:`MaintainerConfig`.

Before this module every entry point grew its own drifting constructor
signature — ``spec``/``seed``/``obs``/``engine`` threaded slightly
differently through :class:`~repro.core.maintainer.JoinSynopsisMaintainer`,
:class:`~repro.core.manager.SynopsisManager`,
:class:`~repro.core.window.SlidingWindowMaintainer` and the
:mod:`repro.persist` wrappers.  The redesigned surface is one frozen,
keyword-only value object accepted everywhere::

    from repro import JoinSynopsisMaintainer, MaintainerConfig, SynopsisSpec

    cfg = MaintainerConfig(spec=SynopsisSpec.fixed_size(500), seed=42,
                           engine="sjoin-opt")
    m = JoinSynopsisMaintainer(db, sql, cfg)
    manager.register("q1", sql, cfg)

The pre-redesign keyword arguments (``spec=``, ``algorithm=``,
``seed=``, ...) completed their deprecation cycle and are gone: the
entry points accept a config (or nothing) and misspelled keywords fail
like on any ordinary signature.  :func:`coerce_config` still guards the
one silent-misuse shape that an ordinary signature would accept — a
:class:`SynopsisSpec` passed in the config slot (the pre-redesign
positional third argument) — with an explicit
:class:`~repro.errors.InvalidArgumentError` naming the fix.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.synopsis import SynopsisSpec
from repro.errors import InvalidArgumentError, SynopsisError

#: the engine names accepted by ``MaintainerConfig.engine`` —
#: ``"sjoin-opt"`` (the paper's FK-collapsed variant, the default),
#: ``"sjoin"`` (no FK collapse) and ``"sj"`` (the symmetric-join baseline).
ENGINES = ("sjoin", "sjoin-opt", "sj")


@dataclasses.dataclass(frozen=True, init=False)
class MaintainerConfig:
    """Frozen, keyword-only construction options for every entry point.

    Fields
    ------
    spec:
        The synopsis type and size/rate (default: fixed-size 1000
        without replacement, the paper's default setup scaled down).
    engine:
        One of :data:`ENGINES`; the legacy constructors called this
        ``algorithm``.
    seed:
        Seed for reproducible sampling.
    obs:
        Optional :class:`~repro.obs.MetricsRegistry`: the engine reports
        every insert segment and delete run to it, once.
    name:
        Display name for error messages; a manager passes the
        registration name.
    effective_spec:
        Pins the engine's spec.  ``None`` (default) over-allocates a
        fixed-size spec by ``1/f`` for residual filters (§5.1), ``f``
        from each filter's ``selectivity_hint`` or else from column
        statistics of the loaded data; ``effective_spec=spec`` asks for
        no over-allocation.  :mod:`repro.persist` passes the captured
        one so a restore never re-estimates from restore-time data, and
        refuses it on ``register`` (the log does not carry it).
    """

    spec: Optional[SynopsisSpec] = None
    engine: str = "sjoin-opt"
    seed: Optional[int] = None
    obs: Optional[object] = None
    name: Optional[str] = None
    effective_spec: Optional[SynopsisSpec] = None

    def __init__(self, *, spec: Optional[SynopsisSpec] = None,
                 engine: str = "sjoin-opt",
                 seed: Optional[int] = None,
                 obs: Optional[object] = None,
                 name: Optional[str] = None,
                 effective_spec: Optional[SynopsisSpec] = None):
        # hand-written so the fields are keyword-only on every supported
        # interpreter (dataclass kw_only= needs 3.10; we support 3.9)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "effective_spec", effective_spec)
        if engine not in ENGINES:
            raise SynopsisError(
                f"unknown engine {engine!r}; pick one of {ENGINES}"
            )

    def replace(self, **changes) -> "MaintainerConfig":
        """A copy with ``changes`` applied (the config itself is frozen)."""
        return dataclasses.replace(self, **changes)


def coerce_config(config: Optional[MaintainerConfig], *,
                  owner: str) -> MaintainerConfig:
    """Normalise an entry point's ``config`` argument.

    ``None`` becomes the all-defaults config.  A :class:`SynopsisSpec`
    in the config slot — the pre-redesign positional third argument,
    which an ordinary signature would silently accept and then
    misbehave on — raises :class:`~repro.errors.InvalidArgumentError`
    naming the replacement (``MaintainerConfig(spec=...)``).
    """
    if isinstance(config, SynopsisSpec):
        raise InvalidArgumentError(
            f"{owner} no longer takes a SynopsisSpec directly; pass "
            "MaintainerConfig(spec=...) — the legacy keyword/positional "
            "shim was removed"
        )
    if config is not None and not isinstance(config, MaintainerConfig):
        raise InvalidArgumentError(
            f"{owner} expected a MaintainerConfig (or None), got "
            f"{type(config).__name__}"
        )
    return config if config is not None else MaintainerConfig()
