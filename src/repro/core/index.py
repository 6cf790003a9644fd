"""Layered-index primitives shared by builders and query engines.

A sequentially layered index is just an assignment of a positive layer
number to every tuple (Definition 1); these helpers convert a layer
array into the physical artefacts query processing needs (the layer-
sorted tuple order, per-layer offsets, and the :class:`LayerSlab`
every layered index serves from) and provide the soundness check the
whole library is built around: every monotone top-k answer must be
contained in the union of the first k layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..queries.ranking import LinearQuery

__all__ = [
    "LayerSlab",
    "layer_order",
    "layer_offsets",
    "tuples_in_top_layers",
    "cumulative_layer_sizes",
    "is_sound_for_query",
    "violating_tids",
]


def _validate_layers(layers: np.ndarray) -> np.ndarray:
    layers = np.asarray(layers)
    if layers.ndim != 1:
        raise ValueError("layers must be one-dimensional")
    if layers.size and layers.min() < 1:
        raise ValueError("layers are 1-based; found a value < 1")
    return layers.astype(np.int64)


def layer_order(layers: np.ndarray) -> np.ndarray:
    """Tids sorted by ``(layer, tid)`` — the sequential storage order."""
    layers = _validate_layers(layers)
    return np.lexsort((np.arange(layers.size), layers))


def layer_offsets(layers: np.ndarray) -> np.ndarray:
    """``offsets[c]`` = number of tuples in layers ``<= c``.

    Index 0 is 0; the array has ``max_layer + 1`` entries, so
    ``offsets[k]`` (clamped) is the retrieval cost of a top-k query.
    """
    layers = _validate_layers(layers)
    if layers.size == 0:
        return np.zeros(1, dtype=np.int64)
    counts = np.bincount(layers, minlength=int(layers.max()) + 1)
    return np.cumsum(counts)


def cumulative_layer_sizes(layers: np.ndarray, up_to: int) -> int:
    """Number of tuples in layers ``1..up_to`` (clamping ``up_to``)."""
    offsets = layer_offsets(layers)
    c = min(max(int(up_to), 0), offsets.size - 1)
    return int(offsets[c])


def tuples_in_top_layers(layers: np.ndarray, up_to: int) -> np.ndarray:
    """Tids whose layer is ``<= up_to``."""
    layers = _validate_layers(layers)
    return np.flatnonzero(layers <= up_to)


def is_sound_for_query(
    points: np.ndarray, layers: np.ndarray, query: LinearQuery, k: int
) -> bool:
    """True when the query's exact top-k lies within the top k layers."""
    return violating_tids(points, layers, query, k).size == 0


def violating_tids(
    points: np.ndarray, layers: np.ndarray, query: LinearQuery, k: int
) -> np.ndarray:
    """Top-k tids (if any) sitting deeper than layer k.

    Empty result means the layering answers this query correctly; used
    extensively by the property-based tests.
    """
    layers = _validate_layers(layers)
    top = query.top_k(np.asarray(points, dtype=float), k)
    return top[layers[top] > k]


@dataclass(frozen=True, slots=True, eq=False)
class LayerSlab:
    """Immutable layer-packed layout of a sequentially layered index.

    The one place that knows the physical layout: tuples stored in
    ``(layer, tid)`` order, so the candidates of a top-k query — the
    first k layers — are one contiguous prefix.

    Attributes
    ----------
    layers:
        1-based layer number per tid.
    order:
        Tids sorted by ``(layer, tid)`` (:func:`layer_order`).
    offsets:
        ``offsets[c]`` = tuples in layers ``<= c``
        (:func:`layer_offsets`).
    rows:
        ``points[order]``, C-contiguous: row j holds the attributes of
        tid ``order[j]``.

    Examples
    --------
    >>> import numpy as np
    >>> slab = LayerSlab.from_layers(
    ...     np.array([[3.0], [1.0], [2.0]]), np.array([2, 1, 1]))
    >>> rows, tids, layers_scanned = slab.prefix(1)
    >>> rows.ravel().tolist(), tids.tolist(), layers_scanned
    ([1.0, 2.0], [1, 2], 1)
    """

    layers: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray

    @classmethod
    def from_layers(cls, points: np.ndarray, layers) -> "LayerSlab":
        """Pack ``points`` (``(n, d)``) by their 1-based ``layers``."""
        layers = np.asarray(layers, dtype=np.intp)
        order = layer_order(layers)
        rows = np.ascontiguousarray(np.asarray(points, dtype=float)[order])
        return cls(layers, order, layer_offsets(layers), rows)

    @classmethod
    def from_arrays(cls, arrays: dict) -> "LayerSlab":
        """Rebuild from :meth:`arrays` output without copying.

        The arrays are adopted as they are, so read-only memmaps of a
        snapshot stay memmaps and nothing is re-sorted or re-packed.
        """
        return cls(
            arrays["layers"], arrays["order"], arrays["offsets"], arrays["slab"]
        )

    def arrays(self) -> dict:
        """Named buffers (``layers``, ``order``, ``offsets``, ``slab``)
        as a snapshot stores them; integer arrays as ``int64``."""
        return {
            "layers": np.asanyarray(self.layers, dtype=np.int64),
            "order": np.asanyarray(self.order, dtype=np.int64),
            "offsets": np.asanyarray(self.offsets, dtype=np.int64),
            "slab": self.rows,
        }

    @property
    def n_layers(self) -> int:
        """Deepest layer number (0 for an empty index)."""
        return self.offsets.size - 1

    def retrieval_cost(self, k: int) -> int:
        """Tuples a top-k query reads: the size of the first k layers."""
        return int(self.offsets[min(max(k, 0), self.offsets.size - 1)])

    def prefix(self, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """``(rows, tids, layers_scanned)`` of the first k layers.

        ``rows[j]`` holds the attributes of ``tids[j]``; both are views
        of the slab.  ``layers_scanned`` is the deepest layer touched
        (the last candidate's, since the slab is layer-ordered).
        """
        c = self.retrieval_cost(k)
        tids = self.order[:c]
        return self.rows[:c], tids, int(self.layers[tids[-1]]) if c else 0

    def layer(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, tids)`` of layer ``c`` alone (1-based)."""
        lo, hi = int(self.offsets[c - 1]), int(self.offsets[c])
        return self.rows[lo:hi], self.order[lo:hi]
