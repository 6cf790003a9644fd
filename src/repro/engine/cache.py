"""Prefix-closed LRU result cache for ranked top-k answers.

Two facts make caching ranked answers unusually effective here:

* A linear query's ranking is invariant under positive scaling of its
  weight vector, so weight vectors are *canonicalized* (projected onto
  the unit-sum simplex) before keying — ``w`` and ``2w`` share one
  entry.
* Top-k answers are **prefix-closed**: the exact top-k list ordered by
  ``(score, tid)`` is a prefix of the exact top-k′ list for every
  k ≤ k′.  A cached deep answer therefore serves every shallower k by
  truncation, so the cache stores only the *deepest* k seen per key.

Entries are kept per *scope* — an opaque hashable identifying the data
the answer was computed over (the executor uses
``(table, index, table_version)``, so replacing a table silently
invalidates its entries; :meth:`ResultCache.invalidate` also evicts a
scope eagerly).

Counters (``cache.hits`` / ``cache.misses`` / ``cache.truncations`` /
``cache.deepenings`` / ``cache.insertions`` / ``cache.evictions`` /
``cache.invalidations``) accumulate on :attr:`ResultCache.metrics` and
are mirrored into any active :mod:`repro.obs` collector; ``repro
stats --cache-size`` prints them.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .. import obs
from ..indexes.base import QueryResult
from ..queries.ranking import LinearQuery

__all__ = [
    "ResultCache",
    "cached_answers",
    "cached_query",
    "canonical_weight_key",
]


def canonical_weight_key(weights) -> bytes:
    """Scaling-invariant cache key for a non-negative weight vector.

    Weights are normalized to sum 1 (the ranking is unchanged by
    positive rescaling) and the float64 bytes are the key.  Rejects
    vectors that cannot be simplex-normalized (negative entries or an
    all-zero vector) — only monotone queries are cacheable.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty vector")
    total = w.sum()
    if np.any(w < 0) or not total > 0:
        raise ValueError("only non-negative, non-zero weights are cacheable")
    return (w / total).tobytes()


class ResultCache:
    """LRU cache of deepest-k ranked answers, served by truncation.

    Parameters
    ----------
    capacity:
        Maximum number of (scope, weights) entries; 0 disables the
        cache (lookups miss, stores are dropped).

    Examples
    --------
    >>> cache = ResultCache(capacity=8)
    >>> cache.store("t", [1.0, 1.0], 3, np.array([4, 7, 2]))
    >>> cache.lookup("t", [2.0, 2.0], 2)  # rescaled weights, shallower k
    array([4, 7])
    >>> cache.lookup("t", [1.0, 1.0], 5) is None  # deeper than stored
    True
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity
        # key -> (tids at the deepest k seen, answer_is_complete).
        # ``complete`` marks answers that exhausted the data (fewer
        # than the requested k tuples exist), which serve *any* k.
        self._entries: OrderedDict[tuple, tuple[np.ndarray, bool]] = (
            OrderedDict()
        )
        #: Lifetime ``cache.*`` counters for this cache instance.
        self.metrics = obs.Metrics()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str, value: int = 1) -> None:
        self.metrics.inc(name, value)
        obs.inc(name, value)

    def lookup(self, scope, weights, k: int):
        """The exact top-k tids, or ``None`` on a miss.

        A hit requires a stored answer at depth k′ ≥ k (or one marked
        complete); the returned array is an owned copy.  A stored
        answer that is too shallow counts as both a miss and a
        ``cache.deepenings`` (the caller is about to deepen it).
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        key = (scope, canonical_weight_key(weights))
        entry = self._entries.get(key)
        if entry is None:
            self._count("cache.misses")
            return None
        tids, complete = entry
        if tids.size < k and not complete:
            self._count("cache.misses")
            self._count("cache.deepenings")
            return None
        self._entries.move_to_end(key)
        self._count("cache.hits")
        if tids.size > k:
            self._count("cache.truncations")
        return tids[:k].copy()

    def store(self, scope, weights, k: int, tids) -> None:
        """Record the exact top-k answer ``tids`` for (scope, weights).

        Only deepens: an existing entry at depth ≥ k (or complete) is
        left untouched.  Fewer than k tids marks the answer complete
        (the whole ranking fits in it).
        """
        if self._capacity == 0:
            return
        tids = np.asarray(tids, dtype=np.intp)
        key = (scope, canonical_weight_key(weights))
        existing = self._entries.get(key)
        if existing is not None and (
            existing[1] or existing[0].size >= tids.size
        ):
            self._entries.move_to_end(key)
            return
        self._entries[key] = (tids.copy(), tids.size < k)
        self._entries.move_to_end(key)
        self._count("cache.insertions")
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._count("cache.evictions")

    def invalidate(self, scope) -> int:
        """Eagerly drop every entry of ``scope``; returns the count."""
        stale = [key for key in self._entries if key[0] == scope]
        for key in stale:
            del self._entries[key]
        if stale:
            self._count("cache.invalidations", len(stale))
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        """Plain-dict snapshot: capacity, size and lifetime counters."""
        return {
            "capacity": self._capacity,
            "size": len(self._entries),
            "counters": dict(self.metrics.counters),
        }


def cached_answers(cache, scope, index, weight_rows, k: int) -> list:
    """Top-k answers for several weight vectors through ``cache``.

    The one cache-then-index path: every vector is looked up in
    ``cache`` (``None`` means no cache); the misses are answered by
    ``index.query`` when there is one and by one ``index.query_batch``
    call when there are several, and stored.  The weights must be
    monotone (non-negative).  Returns one ``(tids, retrieved,
    layers_scanned, state)`` tuple per vector, in input order, where
    ``state`` is ``'hit'`` or ``'miss'``; a hit read nothing, so its
    ``retrieved`` and ``layers_scanned`` are 0.
    """
    answers: list[tuple | None] = [None] * len(weight_rows)
    misses = []
    for j, weights in enumerate(weight_rows):
        hit = None if cache is None else cache.lookup(scope, weights, k)
        if hit is None:
            misses.append(j)
        else:
            answers[j] = (hit, 0, 0, "hit")
    queries = [
        LinearQuery(weight_rows[j], require_monotone=False) for j in misses
    ]
    if len(queries) == 1:
        computed = [index.query(queries[0], k)]
    else:
        computed = index.query_batch(queries, k) if queries else []
    for j, result in zip(misses, computed):
        if cache is not None:
            cache.store(scope, weight_rows[j], k, result.tids)
        answers[j] = (
            result.tids, result.retrieved, result.layers_scanned, "miss"
        )
    return answers


def cached_query(
    cache: ResultCache, index, query, k: int, scope=None
) -> QueryResult:
    """Serve ``index.query(query, k)`` through ``cache``.

    A one-vector :func:`cached_answers`.  On a hit ``retrieved`` is 0 —
    nothing was read from the index; ``extra['cache']`` is ``'hit'`` or
    ``'miss'``.  The returned tids are identical either way.  ``scope``
    defaults to the index object's identity.
    """
    scope = id(index) if scope is None else scope
    tids, retrieved, layers_scanned, state = cached_answers(
        cache, scope, index, [query.weights], k
    )[0]
    return QueryResult(tids, retrieved, layers_scanned, extra={"cache": state})
