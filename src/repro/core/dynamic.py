"""Dynamic maintenance of a robust layering (extension).

The paper builds its index offline; this module adds provably sound
incremental maintenance, exploiting two monotonicity facts about the
minimal rank ``l*(t)``:

* **Insertion** can only *increase* every existing tuple's minimal
  rank (a new tuple adds potential predecessors, never removes any),
  so existing layers stay valid lower bounds untouched.  Only the new
  tuple's own layer must be computed — one AppRI bound of a single
  tuple against the current data, O(n) with the blocked counter.
* **Deletion** can decrease a remaining tuple's minimal rank by at
  most one per deleted tuple (removing one tuple removes at most one
  guaranteed predecessor), so subtracting the number of deletions from
  every layer (floored at 1) keeps the layering sound.

Both operations therefore preserve the library-wide invariant — any
monotone top-k query is answered by the first k layers — at the cost
of gradually loosening layers; ``staleness`` tracks how much has been
given up and ``rebuild`` restores full tightness.
"""

from __future__ import annotations

import numpy as np

from ..dstruct.dominance import count_dominators
from ..geometry.weights import gamma_levels
from .appri import appri_layers
from .matching import greedy_staircase_matching
from .partitioning import level_transform, pair_systems, subspace_transform

__all__ = ["DynamicRobustLayers", "layer_for_new_tuple"]


def layer_for_new_tuple(
    points: np.ndarray, new_point: np.ndarray, n_partitions: int = 10
) -> int:
    """AppRI layer of one new tuple against an existing relation.

    Computes ``|DS^1| + sum of EDS^2 bounds`` for the single tuple in
    O(B * 2^d * n): every region size is one vectorized comparison
    pass instead of a full all-tuples dominance count.
    """
    pts = np.asarray(points, dtype=float)
    t = np.asarray(new_point, dtype=float)
    if pts.ndim != 2 or t.shape != (pts.shape[1],):
        raise ValueError("new_point must match the relation's width")
    n, d = pts.shape
    if n == 0:
        return 1
    stacked = np.vstack([pts, t[None, :]])
    tid = n  # the new tuple's row in the stacked matrix

    bound = int(np.all(pts < t[None, :], axis=1).sum())  # |DS^1|
    gammas = gamma_levels(n_partitions)
    for pair in pair_systems(d, include_partial=False):
        a_levels = np.zeros(n_partitions + 1, dtype=np.int64)
        b_levels = np.zeros(n_partitions + 1, dtype=np.int64)
        for p, gamma in enumerate(gammas, start=1):
            ya = level_transform(stacked, pair, float(gamma), "a")
            yb = level_transform(stacked, pair, float(gamma), "b")
            a_levels[p] = int((ya[:n] < ya[tid]).all(axis=1).sum())
            b_levels[p] = int((yb[:n] < yb[tid]).all(axis=1).sum())
        ya = subspace_transform(stacked, pair, "a")
        yb = subspace_transform(stacked, pair, "b")
        a_levels[n_partitions] = int((ya[:n] < ya[tid]).all(axis=1).sum())
        b_levels[0] = int((yb[:n] < yb[tid]).all(axis=1).sum())
        i_wedges = np.clip(np.diff(a_levels), 0, None)
        iii_wedges = np.clip(np.diff(b_levels[::-1]), 0, None)
        bound += int(
            greedy_staircase_matching(i_wedges[None, :], iii_wedges[None, :])[0]
        )
    return bound + 1


class DynamicRobustLayers:
    """A robust layering that absorbs inserts and deletes soundly.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> idx = DynamicRobustLayers(rng.random((50, 2)), n_partitions=4)
    >>> tid = idx.insert(rng.random(2))
    >>> idx.size
    51
    >>> idx.delete(tid)
    >>> idx.size
    50
    """

    def __init__(self, points: np.ndarray, n_partitions: int = 10,
                 **appri_kwargs):
        """Run the full AppRI build once; later updates are O(n)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        self._n_partitions = n_partitions
        self._appri_kwargs = dict(appri_kwargs)
        self._points = pts
        self._raw_layers = appri_layers(
            pts, n_partitions=n_partitions, **appri_kwargs
        ).astype(np.int64)
        self._alive = np.ones(pts.shape[0], dtype=bool)
        self._deletions = 0
        self._insertions = 0

    @property
    def size(self) -> int:
        """Number of alive tuples."""
        return int(self._alive.sum())

    @property
    def staleness(self) -> int:
        """Updates absorbed since the last (re)build."""
        return self._deletions + self._insertions

    @property
    def points(self) -> np.ndarray:
        """Alive tuples, in the row order tids refer to (a copy)."""
        return self._points[self._alive]

    def layers(self) -> np.ndarray:
        """Current sound layers of the alive tuples (1-based)."""
        adjusted = np.maximum(self._raw_layers - self._deletions, 1)
        return adjusted[self._alive].astype(np.intp)

    def export_state(self) -> tuple[dict, dict]:
        """Serializable state as ``(arrays, meta)``.

        ``arrays`` maps names to numpy arrays (the full point matrix
        including dead rows, the raw uncompensated layers, the alive
        mask); ``meta`` holds the JSON-safe scalars (partition count,
        update counters, build kwargs).  The pair round-trips through
        :meth:`from_state` and is what
        :mod:`repro.engine.snapshot` persists for this class.
        """
        arrays = {
            "points": self._points,
            "raw_layers": self._raw_layers,
            "alive": self._alive,
        }
        meta = {
            "n_partitions": int(self._n_partitions),
            "deletions": int(self._deletions),
            "insertions": int(self._insertions),
            "appri_kwargs": dict(self._appri_kwargs),
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "DynamicRobustLayers":
        """Rebuild an instance from :meth:`export_state` output.

        The alive mask and raw layers are copied into writable arrays
        (updates mutate them); the point matrix is adopted as-is, so a
        read-only memory map stays zero-copy until the first insert or
        rebuild replaces it.
        """
        obj = cls.__new__(cls)
        obj._n_partitions = int(meta["n_partitions"])
        obj._appri_kwargs = {
            # Older snapshots may name the retired ``counting`` and
            # ``chunk_size`` build options; neither changed the layers.
            key: value
            for key, value in meta.get("appri_kwargs", {}).items()
            if key not in ("counting", "chunk_size")
        }
        obj._points = np.asarray(arrays["points"], dtype=float)
        obj._raw_layers = np.array(arrays["raw_layers"], dtype=np.int64)
        obj._alive = np.array(arrays["alive"], dtype=bool)
        obj._deletions = int(meta.get("deletions", 0))
        obj._insertions = int(meta.get("insertions", 0))
        if obj._raw_layers.shape != (obj._points.shape[0],) or (
            obj._alive.shape != (obj._points.shape[0],)
        ):
            raise ValueError("state arrays disagree on the tuple count")
        return obj

    def insert(self, new_point) -> int:
        """Add a tuple; returns its position among alive tuples' rows.

        Existing layers are untouched (sound: minimal ranks only grow);
        the new tuple gets its own freshly computed bound.
        """
        new_point = np.asarray(new_point, dtype=float)
        layer = layer_for_new_tuple(
            self._points[self._alive], new_point, self._n_partitions
        )
        self._points = np.vstack([self._points, new_point[None, :]])
        # Store the raw layer pre-compensated so the deletion
        # adjustment in layers() cannot inflate it above the bound we
        # just proved.
        self._raw_layers = np.append(
            self._raw_layers, layer + self._deletions
        )
        self._alive = np.append(self._alive, True)
        self._insertions += 1
        return self.size - 1

    def delete(self, position: int) -> None:
        """Remove the alive tuple at ``position`` (in alive order).

        Every remaining layer is implicitly lowered by one, which keeps
        the layering sound (a deletion removes at most one guaranteed
        predecessor from any tuple).
        """
        alive_rows = np.flatnonzero(self._alive)
        if not 0 <= position < alive_rows.size:
            raise IndexError(f"position {position} out of range")
        self._alive[alive_rows[position]] = False
        self._deletions += 1

    def rebuild(self) -> None:
        """Recompute tight layers from scratch for the alive tuples."""
        pts = self._points[self._alive]
        self.install(
            pts,
            appri_layers(
                pts, n_partitions=self._n_partitions, **self._appri_kwargs
            ),
        )

    def install(self, points: np.ndarray, layers: np.ndarray) -> None:
        """Adopt an externally computed tight layering for ``points``.

        This is the commit half of an out-of-band rebuild (see
        :class:`repro.engine.rebuild.RebuildManager`): the caller
        captured the alive tuples, recomputed their layers *without*
        holding this object hostage, and now installs the result.  The
        caller is responsible for ensuring no update landed in between
        (the layering must describe exactly ``points``); staleness
        resets to zero.
        """
        points = np.asarray(points, dtype=float)
        layers = np.asarray(layers, dtype=np.int64)
        if points.ndim != 2 or layers.shape != (points.shape[0],):
            raise ValueError("layers must assign one value per point row")
        self._points = points
        self._raw_layers = layers
        self._alive = np.ones(points.shape[0], dtype=bool)
        self._deletions = 0
        self._insertions = 0
