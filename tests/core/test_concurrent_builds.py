"""Concurrent builds in one process must not share inputs.

Below ``POOL_MIN_N`` (and always with ``workers=1``) the level
pipeline runs its tasks in the calling thread, and so does the d=3
exact refine stage on one usable core.  Background rebuilds
(:class:`repro.engine.rebuild.RebuildManager`) and request threads can
build at the same time, so every inline task must read the points of
its own build.  More threads than cores build different point sets at
a short switch interval, and every layering must equal one built
alone.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np

from repro.core import exact, pipeline
from repro.core.appri import appri_layers

from ..reference import appri_levels

ROUNDS = 3
B = 10


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_at_once(build, n_threads):
    """``build(i)`` on ``n_threads`` threads at a short switch interval;
    returns ``{(i, *key): layers}`` from the ``(key, layers)`` pairs each
    call yields."""
    results: dict = {}
    errors: list = []
    start = threading.Barrier(n_threads, timeout=60)

    def run(i: int) -> None:
        try:
            start.wait()
            for key, layers in build(i):
                results[(i, *key)] = layers
        except Exception as exc:  # reported by the main thread
            errors.append((i, repr(exc)))

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return results


def test_threads_building_at_once_get_their_own_layers():
    n_threads = _cores() + 2
    rng = np.random.default_rng(2024)
    datasets = [
        rng.integers(0, 6, size=(200 + 13 * i, 3)).astype(float)
        + rng.random((200 + 13 * i, 3)) * (i % 2)
        for i in range(n_threads)
    ]
    assert all(pts.shape[0] < pipeline.POOL_MIN_N for pts in datasets)
    expected = [
        appri_levels.appri_layers(pts, n_partitions=B, method="blocked")
        for pts in datasets
    ]

    def build(i):
        for r in range(ROUNDS):
            for workers in (2, 1):
                layers = appri_layers(
                    datasets[i], n_partitions=B, workers=workers
                )
                yield (r, workers), layers

    results = _run_at_once(build, n_threads)
    assert len(results) == n_threads * ROUNDS * 2
    wrong = [
        key for key, layers in results.items()
        if not np.array_equal(layers, expected[key[0]])
    ]
    assert wrong == []


def test_threads_refining_exact_layers_at_once(monkeypatch):
    # One usable core and no open-tuple minimum: every d=3 refine runs
    # inline, split into blocks.
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(exact, "_POOL_MIN_OPEN", 0)
    n_threads = _cores() + 2
    rng = np.random.default_rng(7)
    datasets = [rng.random((24 + 3 * i, 3)) for i in range(n_threads)]
    expected = [
        exact.exact_build(pts, engine="prune", workers=1).layers
        for pts in datasets
    ]

    def build(i):
        build = exact.exact_build(datasets[i], engine="prune", workers=2)
        yield (), build.layers

    results = _run_at_once(build, n_threads)
    assert len(results) == n_threads
    wrong = [
        i for (i,), layers in results.items()
        if not np.array_equal(layers, expected[i])
    ]
    assert wrong == []
