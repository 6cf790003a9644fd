"""The robust index (AppRI) as a queryable structure.

Build-time does all the work (:func:`repro.core.appri.appri_layers`);
query-time is the paper's headline simplicity: read the tuples whose
layer is at most k — sequentially, in layer order — and rank them.
No stop-condition bookkeeping is needed, which is why the paper can
express the query as plain SQL.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..core.appri import appri_build
from ..core.exact import exact_build
from ..core.index import LayerSlab
from ..core.qkernel import batch_topk, topk_select
from ..queries.ranking import LinearQuery
from .base import LayeredIndex, QueryResult, RankedIndex

__all__ = ["RobustIndex", "ExactRobustIndex"]


class RobustIndex(LayeredIndex):
    """Sequentially layered robust index built with AppRI.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix (comparable attribute scales advised).
    n_partitions:
        The paper's B wedge-partition count (default 10, the paper's
        operating point after Figures 6-7).
    matching, systems, refine, workers:
        Forwarded to :func:`repro.core.appri.appri_build`;
        ``workers > 1`` lets the build fan out over worker processes
        (identical layers, faster build).  Per-phase build metrics are
        kept on :attr:`build_metrics` and summarized by
        :meth:`build_info`.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> data = rng.random((200, 3))
    >>> idx = RobustIndex(data, n_partitions=5)
    >>> res = idx.query(LinearQuery([1, 2, 1]), 10)
    >>> list(res.tids) == list(LinearQuery([1, 2, 1]).top_k(data, 10))
    True
    >>> res.retrieved <= 200
    True
    """

    name = "AppRI"
    method = "appri"
    _PARAM_DEFAULTS = {
        "n_partitions": 0,
        "systems": "complementary",
        "refine": None,
        "workers": 1,
    }

    def __init__(
        self,
        points: np.ndarray,
        n_partitions: int = 10,
        matching: str = "greedy",
        systems: str = "complementary",
        refine: str | None = None,
        workers: int = 1,
    ):
        super().__init__(points)
        started = time.perf_counter()
        build = appri_build(
            self._points,
            n_partitions=n_partitions,
            matching=matching,
            systems=systems,
            refine=refine,
            workers=workers,
        )
        self._adopt(
            LayerSlab.from_layers(self._points, build.layers),
            {
                "n_partitions": n_partitions,
                "systems": systems,
                "refine": refine,
                "workers": workers,
            },
            time.perf_counter() - started,
            build.metrics,
        )

    def _adopt(self, slab, params, build_seconds=0.0, build_metrics=None):
        super()._adopt(slab, params, build_seconds)
        self._build_metrics = build_metrics or {}
        # Reusable working memory for the batch path (GEMM output plus
        # the kernel's probe/mask buffers); replaced with the slab so a
        # reload never aliases stale shapes.
        self._batch_scratch: dict = {}

    @property
    def build_metrics(self) -> dict:
        """Per-phase construction metrics (``build.*``; see
        :mod:`repro.obs`).  Empty for loaded indexes (no rebuild ran).
        """
        return self._build_metrics

    def candidates_for_k(self, k: int) -> np.ndarray:
        """Tids in the first k layers, in sequential storage order."""
        return self._slab.prefix(k)[1]

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Answer one top-k query from the first k layers: one matvec
        over the slab prefix, then the exact ``(score, tid)`` k-select.
        """
        k = self._check_query(query, k)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        with obs.timed("index.query"):
            rows, candidates, layers_scanned = self._slab.prefix(k)
            tids = topk_select(rows @ query.weights, candidates, k)
        prefix = candidates.size
        obs.inc("index.queries")
        obs.inc("index.candidates", prefix)
        obs.inc("index.layers_scanned", layers_scanned)
        return QueryResult(tids, prefix, layers_scanned)

    def build_info(self) -> dict:
        return {**super().build_info(), "build_metrics": self._build_metrics}

    def query_batch(self, queries, k: int) -> list[QueryResult]:
        """Vectorized batch answering.

        The robust index's candidate set depends only on k, so a whole
        workload is answered in one shot: a single GEMM scores the
        layer-packed slab prefix against every weight vector, then the
        batch kernel (:func:`repro.core.qkernel.batch_topk`) selects
        each query's top k under the exact ``(score, tid)`` tie rule.
        The GEMM output and the kernel's working sets live in
        per-index scratch buffers, so repeated batches run entirely in
        warm memory.  Emits per-batch ``index.batch*`` counters and
        timers.
        """
        queries = list(queries)
        if not queries:
            return []
        ks = {self._check_query(q, k) for q in queries}
        k = ks.pop()
        if k == 0:
            return [
                QueryResult(np.zeros(0, dtype=np.intp), 0, 0) for _ in queries
            ]
        with obs.timed("index.batch"):
            rows, candidates, layers_scanned = self._slab.prefix(k)
            prefix = candidates.size
            weights = np.stack([q.weights for q in queries])  # (q, d)
            # One GEMM over the contiguous prefix, written into a
            # reused C-order (q, c) buffer: the kernel's row passes
            # stay contiguous per query, with no transpose copy and no
            # fresh multi-megabyte allocation per batch.
            scratch = self._batch_scratch
            scores = scratch.get("scores")
            if scores is None or scores.shape != (len(queries), prefix):
                scores = np.empty((len(queries), prefix))
                scratch["scores"] = scores
            np.matmul(weights, rows.T, out=scores)
            top = batch_topk(scores, candidates, k, scratch=scratch)
        obs.inc("index.batch.count")
        obs.inc("index.batch.queries", len(queries))
        obs.inc("index.batch.candidates", prefix * len(queries))
        return [
            QueryResult(top[j], prefix, layers_scanned)
            for j in range(len(queries))
        ]

    def save(self, path) -> None:
        """Persist the index (data + layers + parameters) as ``.npz``.

        The layered structure is what was expensive to build; loading
        restores it without recomputation.
        """
        np.savez_compressed(
            path,
            points=self._points,
            layers=self.layers,
            n_partitions=np.int64(self._params["n_partitions"]),
            systems=np.str_(self._params["systems"]),
            refine=np.str_(self._params["refine"] or ""),
            format_version=np.int64(1),
        )

    @classmethod
    def load(cls, path) -> "RobustIndex":
        """Restore an index saved with :meth:`save` (no rebuild)."""
        with np.load(path, allow_pickle=False) as archive:
            version = int(archive["format_version"])
            if version != 1:
                raise ValueError(f"unsupported index file version {version}")
            index = cls.__new__(cls)
            RankedIndex.__init__(index, archive["points"])
            params = {
                **cls._PARAM_DEFAULTS,
                "n_partitions": int(archive["n_partitions"]),
                "systems": str(archive["systems"]),
                "refine": str(archive["refine"]) or None,
            }
            layers = archive["layers"]
        index._adopt(LayerSlab.from_layers(index._points, layers), params)
        return index


class ExactRobustIndex(RobustIndex):
    """Robust index built with an exact solver (d <= 3).

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix with ``d <= 3``.
    engine:
        Exact engine selection, forwarded to
        :func:`repro.core.exact.exact_build`: ``"auto"`` (default)
        picks the shared-work engine for the dimensionality —
        ``"kinetic"`` (one global rotating sweep, d = 2) or
        ``"prune"`` (bound-driven prune-and-refine, d = 3) — while
        ``"legacy"`` forces the per-tuple reference solver.  All
        engines produce bit-identical layers.
    workers:
        Worker processes for the d = 3 refinement fan-out (ignored by
        the other engines).

    Exists for the exactness-gap ablation and for ground-truth tests;
    with the shared-work engines, n in the tens of thousands (d = 2)
    or thousands (d = 3) is practical.
    """

    name = "ExactRI"
    method = "exact"
    # A snapshot written before the engine was recorded restores to
    # ``None`` (unknown) rather than a guess.
    _PARAM_DEFAULTS = {**RobustIndex._PARAM_DEFAULTS, "engine": None}

    def __init__(
        self, points: np.ndarray, engine: str = "auto", workers: int = 1
    ):
        RankedIndex.__init__(self, points)
        started = time.perf_counter()
        build = exact_build(self._points, engine=engine, workers=workers)
        self._adopt(
            LayerSlab.from_layers(self._points, build.layers),
            {**self._PARAM_DEFAULTS, "workers": workers, "engine": build.engine},
            time.perf_counter() - started,
            build.metrics,
        )
