"""Correctness oracle: every answer is compared with a full scan.

The scan scores every row with :meth:`LinearQuery.scores` -- the same
matrix-vector product :meth:`LinearQuery.top_k` runs -- and returns the
k smallest ``(score, tid)`` pairs.  ``LinearQuery.top_k`` sorts all n
scores to do that, which costs ~2.6 ms per answer at n = 20,000 and
would make checking take longer than the timed run;
:func:`scan_top_k` selects the same k tids in O(n) with a partition and
sorts only the survivors.  The tests check the two agree on tie-heavy
data.

A statement is checked with the weights its text states, in attribute
order -- the values of its fixed-point literals -- worked out by the
client, not by the program's parser, so a parsing fault shows as a
wrong answer.  Answers are checked after the timed phase, from a log
the client kept, so checking never changes the traffic.  A wrong tid
list and an exception both count as a failure.
"""

from __future__ import annotations

import numpy as np

from repro.queries.ranking import LinearQuery

__all__ = ["ChurnMirror", "count_failures", "replay_churn",
           "scan_top_k"]


def scan_top_k(data: np.ndarray, weights, k: int) -> np.ndarray:
    """Tids of the k best rows of ``data`` by ascending (score, tid)."""
    scores = LinearQuery(weights).scores(data)
    k = min(int(k), scores.size)
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    kth = np.partition(scores, k - 1)[k - 1]
    survivors = np.flatnonzero(scores <= kth)
    order = np.lexsort((survivors, scores[survivors]))
    return survivors[order[:k]]


def count_failures(answers, expected) -> int:
    """Answers that raised or differ from ``expected(key)``.

    ``answers`` holds ``(key, tids, error)`` tuples: what the program
    returned for one request, or the exception it raised.  Plain tuples
    of numbers and arrays drop out of the garbage collector's tracking,
    so a long answer log does not lengthen collections in the timed
    phase.
    """
    failed = 0
    for key, tids, error in answers:
        if error is not None:
            failed += 1
        elif not np.array_equal(np.asarray(tids, dtype=np.intp),
                                expected(key)):
            failed += 1
    return failed


class ChurnMirror:
    """The alive tuples of a dynamic index, kept as a plain matrix.

    Tids are positions in alive order, as in
    :class:`repro.indexes.dynamic.DynamicRobustIndex`: an insert appends
    a row and returns its position; a delete removes the row at a
    position and shifts every later row up by one.
    """

    def __init__(self, points):
        self.points = np.array(points, dtype=float)

    def insert(self, row) -> int:
        self.points = np.vstack([self.points, np.asarray(row, float)[None]])
        return self.points.shape[0] - 1

    def delete(self, position: int) -> None:
        if not 0 <= position < self.points.shape[0]:
            raise IndexError(f"position {position} out of range")
        self.points = np.delete(self.points, position, axis=0)

    def top_k(self, weights, k: int) -> np.ndarray:
        return scan_top_k(self.points, weights, k)


def replay_churn(base_points, log) -> int:
    """Failures in one churn round, replayed on a :class:`ChurnMirror`.

    ``log`` holds ``(op, arg, k, result, error)`` entries in the
    order they were issued: ``("read", weights, k, tids, error)``,
    ``("insert", row, None, tid, error)`` and
    ``("delete", position, None, None, error)``.  A write that raised
    is not applied to the mirror: the program refused it.
    """
    mirror = ChurnMirror(base_points)
    failed = 0
    for op, arg, k, result, error in log:
        if error is not None:
            failed += 1
        elif op == "read":
            expected = mirror.top_k(arg, k)
            if not np.array_equal(np.asarray(result, np.intp), expected):
                failed += 1
        elif op == "insert":
            if mirror.insert(arg) != result:
                failed += 1
        elif op == "delete":
            mirror.delete(arg)
        else:
            raise ValueError(f"unknown churn operation {op!r}")
    return failed
