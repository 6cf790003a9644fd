"""The AppRI level pipeline: every count the bound needs, as tasks.

:func:`repro.core.appri.appri_build` takes all of its counting from
:func:`build_level_data`, for any ``workers``.  The work is split into
independent tasks:

1.  One task computes the global dominance factor.
2.  For every pair system, the levels ``1..B`` (interior gamma levels
    plus the paired full-subspace passes at index ``B``) are covered
    by contiguous ranges; each ``("lev", s, p_lo, p_hi)`` task runs
    the fused kernel :func:`~repro.core.kernels.pair_level_data`
    restricted to its range and returns the two partially-filled
    ``(n, B + 1)`` level arrays.  Level columns are disjoint across
    tasks, so the coordinator combines results with plain array
    addition.

Every task runs the *same* kernel on a subset of levels, so the counts
are **identical** for any ``workers`` or ``chunk_size`` (the
parallel-equals-serial metamorphic test in ``tests/properties`` and
the per-level reference ``tests/reference/appri_levels.py`` lock this
in).

Tasks are pure functions of ``(points, B, systems)`` plus a task
descriptor.  A ``ProcessPoolExecutor`` runs them only when it can pay
for itself: ``workers > 1``, at least ``POOL_MIN_N`` tuples *and* more
than one usable core.  Each pool worker then holds the data once (pool
initializer), and each system is split into ~4 chunks per worker so
stragglers rebalance.  Otherwise the tasks run inline in the calling
thread, which passes the data to them as arguments, and each system is
one task: every chunk sorts the system's lead columns again, so
splitting only costs time when nothing runs in parallel.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import obs
from ..dstruct.dominance import count_dominators
from .kernels import pair_level_data
from .partitioning import pair_systems

__all__ = [
    "build_level_data",
    "plan_chunks",
    "run_exact_refine",
    "POOL_MIN_N",
]

#: Below this many tuples, tasks run inline in the coordinating process
#: (identical output; avoids process start-up costing more than the
#: build).  Tests monkeypatch this to force the pool on small inputs.
POOL_MIN_N = 2048


def _usable_cpus() -> int:
    """CPUs the pool could actually occupy (monkeypatched in tests)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Chunk planning
# ---------------------------------------------------------------------------


def plan_chunks(n_levels: int, workers: int, chunk_size: int | None = None):
    """Contiguous ``[lo, hi)`` ranges covering levels ``1..n_levels``.

    ``chunk_size`` is the number of gamma levels per task; the default
    aims at ~4 chunks per worker within one system so stragglers
    rebalance across a pool's (systems x chunks) task grid.
    """
    if n_levels <= 0:
        return []
    if chunk_size is None:
        chunk_size = -(-n_levels // (4 * max(workers, 1)))
    chunk_size = max(1, min(int(chunk_size), n_levels))
    return [
        (lo, min(lo + chunk_size, n_levels + 1))
        for lo in range(1, n_levels + 1, chunk_size)
    ]


# ---------------------------------------------------------------------------
# Task execution (worker side)
# ---------------------------------------------------------------------------

#: Per-process state installed by the pool initializer.  Only pool
#: worker processes read it; inline tasks get their inputs as arguments,
#: so concurrent builds in one process never share state.
_WORKER: dict = {}


def _init_worker(points, n_partitions, include_partial):
    _WORKER["pts"] = np.asarray(points, dtype=float)
    _WORKER["b"] = int(n_partitions)
    _WORKER["systems"] = pair_systems(
        _WORKER["pts"].shape[1], include_partial=include_partial
    )


def _init_exact_worker(points):
    _WORKER["exact_pts"] = np.asarray(points, dtype=float)


def _run_pool_refine_block(block):
    """:func:`_run_refine_block` on the pool worker's installed points."""
    return _run_refine_block(block, _WORKER["exact_pts"])


def _run_refine_block(block, pts):
    """Refine one block of open tuples; returns (ranks, metrics dict).

    The exact module is imported lazily inside the worker to keep
    pipeline importable from :mod:`repro.core.exact` without a cycle.
    """
    from .exact import _refine_open_tuple

    ids, uppers, lowers = block
    out = np.empty(len(ids), dtype=np.intp)
    local = obs.Metrics()
    with obs.collect(local, propagate=False):
        for i, (t, u, lo) in enumerate(zip(ids, uppers, lowers)):
            out[i] = _refine_open_tuple(pts, int(t), int(u), int(lo))
        obs.inc("exact.refine_blocks")
    return out, local.as_dict()


def _run_pool_task(task):
    """:func:`_run_task` on the pool worker's installed inputs."""
    return _run_task(task, _WORKER["pts"], _WORKER["b"], _WORKER["systems"])


def _run_task(task, pts, b, systems):
    """Execute one task; returns (task, payload, metrics dict)."""
    local = obs.Metrics()
    with obs.collect(local, propagate=False):
        kind = task[0]
        if kind == "dom":
            with obs.timed("build.phase.dominators"):
                payload = count_dominators(pts).astype(np.int64)
        elif kind == "lev":
            _, s, p_lo, p_hi = task
            with obs.timed("build.phase.levels"):
                payload = pair_level_data(
                    pts, systems[s], b, levels=range(p_lo, p_hi)
                )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown task kind {kind!r}")
        obs.inc("build.tasks")
    return task, payload, local.as_dict()


# ---------------------------------------------------------------------------
# Coordination
# ---------------------------------------------------------------------------


def build_level_data(
    points: np.ndarray,
    n_partitions: int,
    include_partial: bool,
    workers: int,
    chunk_size: int | None = None,
    metrics: "obs.Metrics | None" = None,
):
    """All counting the AppRI bound needs, computed as tasks.

    Returns ``(dominators, level_data, systems)`` where ``level_data``
    is a list over pair systems of ``(a_levels, b_levels)`` arrays of
    shape ``(n, B + 1)``, laid out like
    :func:`~repro.core.kernels.pair_level_data` returns them: interior
    columns from the gamma levels, column B of ``a`` / column 0 of
    ``b`` from the full-subspace passes, the remaining boundary
    columns zero.

    ``chunk_size`` is the number of gamma levels per task; ``None``
    plans one task per system when the tasks run inline and ~4 chunks
    per worker per system when a pool runs them.  Counts are
    integer-identical for any ``workers`` or ``chunk_size``; only the
    schedule changes.
    """
    if chunk_size is not None and (
        not isinstance(chunk_size, (int, np.integer)) or chunk_size < 1
    ):
        raise ValueError("chunk_size must be None or an integer >= 1")
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    b = int(n_partitions)
    systems = pair_systems(d, include_partial=include_partial)
    use_pool = (
        workers > 1
        and n >= POOL_MIN_N
        and len(systems) > 0
        and _usable_cpus() > 1
    )
    if chunk_size is None and not use_pool:
        chunk_size = b
    chunks = plan_chunks(b, workers, chunk_size)

    tasks: list[tuple] = [("dom",)]
    for s in range(len(systems)):
        tasks += [("lev", s, lo, hi) for lo, hi in chunks]
    if metrics is not None:
        metrics.inc("build.chunks", len(chunks))
        metrics.inc("build.pool_used", int(use_pool))
    if not use_pool:
        results = (_run_task(task, pts, b, systems) for task in tasks)
        return _combine(results, systems, metrics)
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        initializer=_init_worker,
        initargs=(pts, b, include_partial),
    ) as pool:
        results = pool.map(
            _run_pool_task,
            tasks,
            chunksize=max(1, len(tasks) // (4 * workers)),
        )
        return _combine(results, systems, metrics)


def _combine(results, systems, metrics):
    """Fold task results, as they arrive, into ``build_level_data``'s
    return value."""
    dominators = None
    level_data = [None] * len(systems)
    for task, payload, task_metrics in results:
        if metrics is not None:
            metrics.merge(task_metrics)
        if task[0] == "dom":
            dominators = payload
        elif level_data[task[1]] is None:
            level_data[task[1]] = payload
        else:
            # Tasks cover disjoint level columns, so addition combines.
            for acc, part in zip(level_data[task[1]], payload):
                acc += part
    return dominators, level_data, systems


def run_exact_refine(
    points: np.ndarray,
    open_ids: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
    workers: int,
    block_size: int | None = None,
) -> np.ndarray:
    """Refine the open tuples of a d=3 exact build over a process pool.

    Each task runs the same per-tuple subdivision solver the serial
    path runs (:func:`repro.core.exact._refine_open_tuple`) on a
    contiguous block of open tuple ids with their probe upper bounds
    and certified lower bounds, so the refined ranks are identical to
    serial refinement for any ``workers`` or ``block_size``.  Falls
    back to inline execution when the pool cannot pay for itself
    (single usable core, or a single block).  Worker-side ``exact.*``
    metrics are merged into the caller's active collector.
    """
    pts = np.asarray(points, dtype=float)
    open_ids = np.asarray(open_ids)
    upper = np.asarray(upper)
    lower = np.asarray(lower)
    m = open_ids.size
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    if block_size is None:
        block_size = -(-m // (4 * max(workers, 1)))
    block_size = max(1, int(block_size))
    blocks = [
        (
            open_ids[lo : lo + block_size],
            upper[lo : lo + block_size],
            lower[lo : lo + block_size],
        )
        for lo in range(0, m, block_size)
    ]
    use_pool = workers > 1 and len(blocks) > 1 and _usable_cpus() > 1
    obs.inc("exact.pool_used", int(use_pool))
    if use_pool:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)),
            initializer=_init_exact_worker,
            initargs=(pts,),
        ) as pool:
            results = list(pool.map(_run_pool_refine_block, blocks))
    else:
        results = [_run_refine_block(block, pts) for block in blocks]
    active = obs.active_metrics()
    if active is not None:
        for _, block_metrics in results:
            active.merge(block_metrics)
    return np.concatenate([ranks for ranks, _ in results])
