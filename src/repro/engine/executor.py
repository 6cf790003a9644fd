"""Top-k query execution over the catalog.

Three physical plans, mirroring the paper's deployment story:

``index``
    Route to an attached :class:`~repro.indexes.base.RankedIndex`
    (``USING INDEX name``).
``layer-prefix``
    The paper's SQL integration: the relation carries a materialized
    ``layer`` column and is stored sequentially in layer order; the
    executor reads the prefix with ``layer <= c`` and ranks it.
``scan``
    Full sequential scan (also the fallback for non-monotone
    ``ORDER BY`` expressions, which layered monotone indexes cannot
    serve).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.index import layer_order
from ..core.qkernel import topk_select
from ..queries.ranking import LinearQuery
from .cache import ResultCache
from .catalog import Catalog
from .relation import Relation
from .schema import Attribute
from .sql import ParsedQuery, parse
from .storage import BlockStore

__all__ = ["ExecutionResult", "TopKExecutor", "materialize_layers"]

#: Name of the materialized layer column.
LAYER_COLUMN = "layer"


@dataclass(frozen=True)
class ExecutionResult:
    """Answer plus the cost accounting the experiments report."""

    tids: np.ndarray
    rows: Relation
    retrieved: int
    blocks_read: int
    plan: str
    extra: dict = field(default_factory=dict)

    @property
    def metrics(self) -> dict:
        """Per-query observability snapshot (``query.*`` counters and
        timers; see :mod:`repro.obs`).  Empty for ``explain`` results.
        """
        return self.extra.get("metrics", {})


def materialize_layers(
    catalog: Catalog, table_name: str, layers, block_size: int = 64
) -> BlockStore:
    """Attach a layer column to a table and store it in layer order.

    Returns the resulting :class:`BlockStore`; the catalog's table is
    replaced by the extended relation (same name).
    """
    relation = catalog.table(table_name)
    layers = np.asarray(layers, dtype=np.int64)
    if layers.shape != (relation.n_rows,):
        raise ValueError("layers must assign one value per row")
    if LAYER_COLUMN in relation.schema:
        raise ValueError(f"table {table_name!r} already has a layer column")
    extended = relation.with_column(Attribute(LAYER_COLUMN, "int"), layers)
    catalog.replace_table(extended)
    return BlockStore(
        extended, storage_order=layer_order(layers), block_size=block_size
    )


class TopKExecutor:
    """Executes parsed (or textual) ranked top-k statements.

    Parameters
    ----------
    catalog, block_size:
        The table/index registry and the paged-storage block size used
        for block accounting.
    cache_size:
        Capacity of the prefix-closed result cache serving index plans
        (see :class:`~repro.engine.cache.ResultCache`); 0 (the
        default) disables caching.  Caching never changes the tids a
        statement returns — on a hit ``retrieved`` is 0 and
        ``extra['cache'] == 'hit'``.  Entries are keyed on the table's
        content version, so :meth:`Catalog.replace_table` invalidates
        them automatically.
    """

    def __init__(
        self, catalog: Catalog, block_size: int = 64, cache_size: int = 0
    ):
        self._catalog = catalog
        self._block_size = block_size
        self._stores: dict[str, BlockStore] = {}
        self._planner = None
        #: Result cache for index-plan answers; ``None`` when disabled.
        self.cache = ResultCache(cache_size) if cache_size > 0 else None
        #: Cumulative ``query.*`` metrics across every query this
        #: executor has run (per-query snapshots ride on each
        #: :attr:`ExecutionResult.metrics`).
        self.metrics = obs.Metrics()

    def register_store(self, table_name: str, store: BlockStore) -> None:
        """Associate a layer-ordered store (see :func:`materialize_layers`)
        with a table.

        A ``WHERE layer <=`` statement reads its prefix from the store
        only while ``store.relation`` is the catalog's current table;
        after :meth:`Catalog.replace_table` it ranks the layer column
        of the new table instead.
        """
        self._stores[table_name] = store

    @property
    def planner(self):
        """Lazily constructed cost-based planner over this catalog."""
        if self._planner is None:
            from .planner import CostBasedPlanner

            self._planner = CostBasedPlanner(
                self._catalog, block_size=self._block_size
            )
        return self._planner

    def explain(self, statement: str | ParsedQuery) -> str:
        """Rank the physical plans for a statement without executing."""
        query = parse(statement) if isinstance(statement, str) else statement
        return self.planner.explain(query.table, query.k)

    def execute_auto(self, statement: str | ParsedQuery) -> ExecutionResult:
        """Execute with cost-based plan selection.

        Explicit ``USING INDEX`` hints and ``layer <=`` predicates are
        honoured as written; otherwise the planner picks the cheapest
        of scan / layer-prefix / attached robust index.  Non-monotone
        ORDER BY always scans (layered plans cannot serve it).
        """
        query = parse(statement) if isinstance(statement, str) else statement
        if query.explain:
            return self._explain_result(query)
        if query.index_hint is not None or query.layer_bound is not None:
            return self.execute(query)
        if not _monotone(query):
            return self.execute(query)
        chosen = self.planner.choose(query.table, query.k)
        if chosen.kind == "layer-prefix":
            query = ParsedQuery(
                k=query.k,
                table=query.table,
                order_by=query.order_by,
                layer_bound=query.k,
            )
        elif chosen.kind == "index":
            query = ParsedQuery(
                k=query.k,
                table=query.table,
                order_by=query.order_by,
                index_hint=chosen.index_name,
            )
        return self.execute(query)

    def _explain_result(self, query: ParsedQuery) -> ExecutionResult:
        relation = self._catalog.table(query.table)
        text = self.planner.explain(query.table, query.k)
        return ExecutionResult(
            tids=np.zeros(0, dtype=np.intp),
            rows=relation.take(np.zeros(0, dtype=np.intp)),
            retrieved=0,
            blocks_read=0,
            plan="explain",
            extra={"text": text},
        )

    def execute(self, statement: str | ParsedQuery) -> ExecutionResult:
        query = parse(statement) if isinstance(statement, str) else statement
        if query.explain:
            return self._explain_result(query)
        local = obs.Metrics()
        with obs.collect(local):
            started = time.perf_counter()
            result = self._execute_parsed(query)
            elapsed = time.perf_counter() - started
            plan_kind = result.plan.split("(", 1)[0]
            local.add_time(f"query.{plan_kind}", elapsed)
            local.inc("query.count")
            local.inc("query.retrieved", result.retrieved)
            local.inc("query.blocks_read", result.blocks_read)
        self.metrics.merge(local)
        # Every plan builds a fresh ``extra`` dict for its result.
        result.extra["metrics"] = local.as_dict()
        return result

    def _resolve_index_plan(self, query: ParsedQuery) -> ParsedQuery | None:
        """The statement rewritten to an index plan, or ``None`` when
        it cannot be batch-served (explain / layer-bound / negative
        weights / planner prefers another plan)."""
        if query.explain or query.layer_bound is not None:
            return None
        if not _monotone(query):
            return None
        if query.index_hint is not None:
            return query
        chosen = self.planner.choose(query.table, query.k)
        if chosen.kind != "index":
            return None
        return ParsedQuery(
            k=query.k,
            table=query.table,
            order_by=query.order_by,
            index_hint=chosen.index_name,
        )

    def execute_many(self, statements) -> list[ExecutionResult]:
        """Answer many statements, batching where the engine can.

        Statements that resolve to an index plan are grouped by
        (table, index, k) and each group is answered through the
        index's vectorized :meth:`~repro.indexes.base.RankedIndex.query_batch`
        (consulting the result cache per query when enabled);
        everything else falls back to :meth:`execute_auto` per
        statement.  Results come back in input order and each batched
        result carries the per-batch ``query.*`` / ``cache.*`` metrics
        snapshot plus its batch size in ``extra``.
        """
        parsed = [
            parse(s) if isinstance(s, str) else s for s in statements
        ]
        results: list[ExecutionResult | None] = [None] * len(parsed)
        groups: dict[tuple, list[tuple[int, ParsedQuery]]] = {}
        for i, query in enumerate(parsed):
            indexed = self._resolve_index_plan(query)
            if indexed is None:
                results[i] = self.execute_auto(query)
            else:
                key = (indexed.table, indexed.index_hint, indexed.k)
                groups.setdefault(key, []).append((i, indexed))
        for (table, index_name, k), members in groups.items():
            self._execute_index_batch(table, index_name, k, members, results)
        return results

    def _execute_index_batch(
        self, table, index_name, k, members, results
    ) -> None:
        relation = self._catalog.table(table)
        index = self._catalog.index(table, index_name)
        local = obs.Metrics()
        with obs.collect(local):
            started = time.perf_counter()
            weight_rows = [
                self._index_weights(relation, index_name, q.order_by)
                for _, q in members
            ]
            # (tids, retrieved, layers_scanned, cache state) per member.
            answers: list[tuple | None] = [None] * len(members)
            if self.cache is not None:
                scope = self._cache_scope(table, index_name)
                misses = []
                for j, weights in enumerate(weight_rows):
                    hit = self.cache.lookup(scope, weights, k)
                    if hit is not None:
                        answers[j] = (hit, 0, 0, "hit")
                    else:
                        misses.append(j)
            else:
                misses = list(range(len(members)))
            if misses:
                batch = index.query_batch(
                    [LinearQuery(weight_rows[j]) for j in misses], k
                )
                for j, result in zip(misses, batch):
                    if self.cache is not None:
                        self.cache.store(
                            scope, weight_rows[j], k, result.tids
                        )
                    answers[j] = (
                        result.tids,
                        result.retrieved,
                        result.layers_scanned,
                        "miss",
                    )
            retrieved = [a[1] for a in answers]
            blocks = [self._blocks(r) for r in retrieved]
            local.add_time("query.index", time.perf_counter() - started)
            local.inc("query.count", len(members))
            local.inc("query.batches")
            local.inc("query.retrieved", sum(retrieved))
            local.inc("query.blocks_read", sum(blocks))
        self.metrics.merge(local)
        snapshot = local.as_dict()
        for j, (i, _query) in enumerate(members):
            tids, tuples_read, layers_scanned, cache_state = answers[j]
            extra = {
                "layers_scanned": layers_scanned,
                "metrics": snapshot,
                "batch_size": len(members),
            }
            if self.cache is not None:
                extra["cache"] = cache_state
            results[i] = ExecutionResult(
                tids=tids,
                rows=relation.take(tids),
                retrieved=tuples_read,
                blocks_read=blocks[j],
                plan=f"index({index_name})",
                extra=extra,
            )

    def _execute_parsed(self, query: ParsedQuery) -> ExecutionResult:
        relation = self._catalog.table(query.table)
        for attr in query.order_by:
            if attr not in relation.schema:
                raise KeyError(
                    f"ORDER BY references unknown attribute {attr!r} "
                    f"on table {query.table!r}"
                )
        if query.index_hint is not None:
            return self._execute_with_index(query, relation)
        # The scan and layer-prefix plans rank over the ORDER BY
        # attributes only, in statement order.
        linear = LinearQuery(
            list(query.order_by.values()), require_monotone=False
        )
        if query.layer_bound is not None:
            return self._execute_layer_prefix(query, relation, linear)
        return self._execute_scan(query, relation, linear)

    def _index_weights(
        self, relation, index_name: str, order_by: dict
    ) -> np.ndarray:
        # Indexes cover the table's float attributes in schema order;
        # attributes the statement does not rank get weight zero.
        indexed = [a.name for a in relation.schema if a.kind == "float"]
        unknown = [a for a in order_by if a not in indexed]
        if unknown:
            raise ValueError(
                f"index {index_name!r} does not cover {unknown}"
            )
        return np.array([order_by.get(name, 0.0) for name in indexed])

    def _cache_scope(self, table: str, index_name: str) -> tuple:
        return (table, index_name, self._catalog.table_version(table))

    def _blocks(self, tuples: int) -> int:
        return -(-tuples // self._block_size) if tuples else 0

    def _execute_with_index(self, query, relation) -> ExecutionResult:
        full = self._index_weights(relation, query.index_hint, query.order_by)
        linear = LinearQuery(full, require_monotone=False)
        if not _monotone(query):
            raise ValueError(
                "monotone layered indexes cannot serve negative weights; "
                "drop the USING INDEX hint to fall back to a scan"
            )
        index = self._catalog.index(query.table, query.index_hint)
        plan = f"index({query.index_hint})"
        if self.cache is not None:
            scope = self._cache_scope(query.table, query.index_hint)
            hit = self.cache.lookup(scope, full, query.k)
            if hit is not None:
                return ExecutionResult(
                    tids=hit,
                    rows=relation.take(hit),
                    retrieved=0,
                    blocks_read=0,
                    plan=plan,
                    extra={"cache": "hit"},
                )
        result = index.query(linear, query.k)
        extra = {"layers_scanned": result.layers_scanned}
        if self.cache is not None:
            self.cache.store(scope, full, query.k, result.tids)
            extra["cache"] = "miss"
        return ExecutionResult(
            tids=result.tids,
            rows=relation.take(result.tids),
            retrieved=result.retrieved,
            blocks_read=self._blocks(result.retrieved),
            plan=plan,
            extra=extra,
        )

    def _execute_layer_prefix(self, query, relation, linear) -> ExecutionResult:
        if LAYER_COLUMN not in relation.schema:
            raise KeyError(
                f"table {query.table!r} has no materialized {LAYER_COLUMN!r} "
                "column; call materialize_layers first"
            )
        store = self._stores.get(query.table)
        if store is not None and store.relation is relation:
            # Layer-ordered storage: the qualifying tuples are exactly
            # a prefix of the storage order.
            retrieved = store.prefix_length(LAYER_COLUMN, query.layer_bound)
            candidates = store.read_prefix(retrieved)
            blocks = store.blocks_for_prefix(retrieved)
        else:
            # No store, or one registered for data the catalog has
            # since replaced: filter the current layer column.
            layers = relation.column(LAYER_COLUMN)
            candidates = np.flatnonzero(layers <= query.layer_bound)
            retrieved = int(candidates.size)
            blocks = self._blocks(retrieved)
        data = relation.matrix(list(query.order_by), rows=candidates)
        # topk_select breaks ties by tid, so candidate order is free.
        tids = topk_select(linear.scores(data), candidates, query.k)
        return ExecutionResult(
            tids=tids,
            rows=relation.take(tids),
            retrieved=retrieved,
            blocks_read=blocks,
            plan=f"layer-prefix(<= {query.layer_bound})",
        )

    def _execute_scan(self, query, relation, linear) -> ExecutionResult:
        n = relation.n_rows
        tids = linear.top_k(relation.matrix(list(query.order_by)), query.k)
        return ExecutionResult(
            tids=tids,
            rows=relation.take(tids),
            retrieved=n,
            blocks_read=self._blocks(n),
            plan="scan",
        )


def _monotone(query: ParsedQuery) -> bool:
    """True when no ORDER BY weight is negative."""
    return not any(w < 0 for w in query.order_by.values())
