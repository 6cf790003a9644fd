"""Paged sequential storage.

Models the disk layout sequential indexing is designed for: tuples are
laid out in a fixed *storage order* (for layered indexes, by layer),
grouped into fixed-size blocks.  Scans deliver tuples strictly in that
order and charge :class:`~repro.engine.stats.AccessStats` per tuple and
per block, so experiments can report both retrieval counts (the
paper's metric) and the induced page I/O.
"""

from __future__ import annotations

import bisect
from typing import Iterator

import numpy as np

from .relation import Relation
from .stats import AccessStats

__all__ = ["BlockStore", "LAYER_COLUMN", "blocks_for"]

#: Name of the materialized layer column a layer-ordered store sorts.
LAYER_COLUMN = "layer"


def blocks_for(n_tuples: int, block_size: int) -> int:
    """Blocks that ``n_tuples`` consecutive tuples fill (0 for none)."""
    return -(-max(n_tuples, 0) // block_size)


class BlockStore:
    """A relation frozen into a sequential, paged layout.

    Parameters
    ----------
    relation:
        The table to store.
    storage_order:
        Permutation of tids defining the physical order; defaults to
        tid order.  Layered indexes pass their layer-sorted order.
    block_size:
        Tuples per page (the paper's sequential-I/O granularity).
    """

    def __init__(self, relation: Relation, storage_order=None, block_size: int = 64):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        n = relation.n_rows
        if storage_order is None:
            storage_order = np.arange(n)
        storage_order = np.asarray(storage_order, dtype=np.intp)
        if storage_order.shape != (n,) or (
            n and not np.array_equal(np.sort(storage_order), np.arange(n))
        ):
            raise ValueError("storage_order must be a permutation of all tids")
        self._relation = relation
        self._order = storage_order
        self._block_size = block_size
        self.stats = AccessStats()

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def n_blocks(self) -> int:
        return blocks_for(self._relation.n_rows, self._block_size)

    def position_of(self, tid: int) -> int:
        """Physical position of a tuple in the sequential layout."""
        positions = getattr(self, "_positions", None)
        if positions is None:
            positions = np.empty_like(self._order)
            positions[self._order] = np.arange(self._order.size)
            self._positions = positions
        return int(positions[tid])

    def scan(self, limit: int | None = None) -> Iterator[int]:
        """Yield tids sequentially, charging stats per tuple and block.

        ``limit`` stops the scan after that many tuples — the caller's
        early-stop decision; partial blocks still charge a block read.
        """
        self.stats.scans_started += 1
        n = self._relation.n_rows if limit is None else min(limit, self._relation.n_rows)
        last_block = -1
        for pos in range(n):
            block = pos // self._block_size
            if block != last_block:
                self.stats.blocks_read += 1
                last_block = block
            self.stats.tuples_read += 1
            yield int(self._order[pos])

    def read_prefix(self, n_tuples: int) -> np.ndarray:
        """Tids of the first ``n_tuples`` in storage order.

        One slice of the storage order; charges the same stats as
        consuming ``scan(limit=n_tuples)`` to the end.
        """
        n = min(max(n_tuples, 0), self._relation.n_rows)
        self.stats.scans_started += 1
        self.stats.tuples_read += n
        self.stats.blocks_read += self.blocks_for_prefix(n)
        return self._order[:n].copy()

    def prefix_length(self, column: str, bound) -> int:
        """Length of the storage-order prefix whose ``column`` is <= ``bound``.

        A binary search, so the storage order must sort ``column``
        ascending, as a layer-ordered store sorts its layer column.
        """
        values, order = self._relation.column(column), self._order
        return bisect.bisect_right(
            range(order.size), bound, key=lambda pos: values[order[pos]]
        )

    def blocks_for_prefix(self, n_tuples: int) -> int:
        """Blocks a prefix read of that many tuples touches."""
        return blocks_for(
            min(n_tuples, self._relation.n_rows), self._block_size
        )
