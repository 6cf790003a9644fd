"""Observability: counters, timers and per-phase build/query metrics.

Library code is instrumented with the module-level helpers
(:func:`inc`, :func:`timed`), which are near-free no-ops unless a
collector is active.  A caller opts in by wrapping work in
:func:`collect`::

    from repro import obs

    with obs.collect() as metrics:
        index = RobustIndex(data)
        index.query(query, 10)
    print(metrics.summary())

Collectors nest: when an inner :func:`collect` exits it folds its
metrics into the enclosing collector (pass ``propagate=False`` to keep
them private).  Worker processes cannot see the parent's collector, so
parallel build tasks collect locally and return ``Metrics.as_dict()``
snapshots that the coordinating process merges — see
:mod:`repro.core.pipeline`.

Metric names are dotted paths; the prefixes in use:

``build.*``
    AppRI construction phases (dominators / levels / matching /
    aggregate / refine) plus task and worker accounting.
``df.*``
    Dominance-factor counting engines (passes, tuples, per-engine
    time).
``counting.*``
    Engine selection and kernel accounting:
    ``counting.engine.<name>`` counts which engine served each
    dominance pass (``kernel`` or a legacy engine), the
    ``counting.kernel`` timer accumulates time inside the vectorized
    kernels, ``counting.fused_levels`` counts level passes served by
    one fused call, and ``counting.fallback.one_dim`` counts 1-D
    passes that ran outside the kernels.
``exact.*``
    The exact robust-layer solvers.
``query.*``
    Executor query path (per-plan time, tuples retrieved, blocks;
    ``query.batches`` counts :meth:`execute_many` index groups).
``index.*``
    Index-level query counters; ``index.batch.*`` covers the
    vectorized ``query_batch`` path.
``cache.*``
    Result cache (hits / misses / truncations / deepenings /
    insertions / evictions).
``snapshot.*``
    Index persistence (:mod:`repro.engine.snapshot`): ``saves`` /
    ``loads`` / ``bytes_written`` / ``bytes_read`` /
    ``stale_skipped`` counters and the ``snapshot.save`` /
    ``snapshot.load`` timers.
``rebuild.*``
    Background re-tightening (:mod:`repro.engine.rebuild`): ``runs``
    / ``swaps`` / ``discarded`` / ``staleness_cleared`` counters and
    the ``rebuild.build`` timer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from .metrics import Metrics

__all__ = [
    "Metrics",
    "active_metrics",
    "collect",
    "inc",
    "add_time",
    "timed",
]

_ACTIVE: ContextVar[Metrics | None] = ContextVar("repro_obs_active", default=None)


def active_metrics() -> Metrics | None:
    """The collector currently in scope, or ``None``."""
    return _ACTIVE.get()


@contextmanager
def collect(metrics: Metrics | None = None, propagate: bool = True):
    """Install a collector for the ``with`` block and yield it.

    On exit the collected metrics are merged into any enclosing
    collector unless ``propagate=False``.
    """
    target = metrics if metrics is not None else Metrics()
    outer = _ACTIVE.get()
    token = _ACTIVE.set(target)
    try:
        yield target
    finally:
        _ACTIVE.reset(token)
        if propagate and outer is not None and outer is not target:
            outer.merge(target)


def inc(name: str, value: int = 1) -> None:
    """Increment ``name`` on the active collector, if any."""
    metrics = _ACTIVE.get()
    if metrics is not None:
        metrics.inc(name, value)


def add_time(name: str, seconds: float) -> None:
    """Accumulate seconds into ``name`` on the active collector, if any."""
    metrics = _ACTIVE.get()
    if metrics is not None:
        metrics.add_time(name, seconds)


class _Timed:
    """Context manager timing a block into the active collector.

    A plain class rather than ``@contextmanager``: the per-query hot
    path enters one of these on every call, and generator-based
    context managers cost ~2us each where this costs a fraction of
    that (and nearly nothing when no collector is active).
    """

    __slots__ = ("_name", "_metrics", "_started")

    def __init__(self, name: str):
        self._name = name

    def __enter__(self):
        self._metrics = _ACTIVE.get()
        if self._metrics is not None:
            self._started = time.perf_counter()

    def __exit__(self, exc_type, exc, tb):
        if self._metrics is not None:
            self._metrics.add_time(
                self._name, time.perf_counter() - self._started
            )
        return False


def timed(name: str) -> _Timed:
    """Time the wrapped block into the active collector (no-op without)."""
    return _Timed(name)
