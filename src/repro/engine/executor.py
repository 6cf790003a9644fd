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
from .cache import ResultCache, cached_answers
from .catalog import Catalog
from .relation import Relation
from .schema import Attribute
from .sql import ParsedQuery, parse
from .storage import LAYER_COLUMN, BlockStore, blocks_for

__all__ = ["ExecutionResult", "TopKExecutor", "materialize_layers"]

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
        return self.execute(self._resolve(query))

    def _explain_result(self, query: ParsedQuery) -> ExecutionResult:
        """An empty result whose ``extra['text']`` is the plan ranking."""
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
        """Execute the plan the statement names: its ``USING INDEX``
        hint, else its ``layer <=`` bound, else a full scan."""
        query = parse(statement) if isinstance(statement, str) else statement
        if query.explain:
            return self._explain_result(query)
        return self._run([query])[0]

    def execute_many(self, statements) -> list[ExecutionResult]:
        """Answer many statements, batching where the engine can.

        Each statement is planned once, as :meth:`execute_auto` plans
        it.  Statements whose plan is an index plan are grouped by
        (table, index, k) and each group is answered together: cache
        hits first when the cache is enabled, then the misses through
        one :meth:`~repro.indexes.base.RankedIndex.query_batch` call
        (or ``query`` for a single miss).  Every other statement runs
        through :meth:`execute`.  Results come back in input order and
        each grouped result carries the group's ``query.*`` /
        ``cache.*`` metrics snapshot plus the group size as
        ``extra['batch_size']``.
        """
        queries = [
            self._resolve(parse(s) if isinstance(s, str) else s)
            for s in statements
        ]
        results: list[ExecutionResult | None] = [None] * len(queries)
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(queries):
            if query.explain or query.index_hint is None:
                results[i] = self.execute(query)
            else:
                key = (query.table, query.index_hint, query.k)
                groups.setdefault(key, []).append(i)
        for members in groups.values():
            answered = self._run([queries[i] for i in members], batched=True)
            for i, result in zip(members, answered):
                results[i] = result
        return results

    def _resolve(self, query: ParsedQuery) -> ParsedQuery:
        """The statement with its physical plan written into it.

        EXPLAIN, a ``USING INDEX`` hint, a ``layer <=`` bound and a
        non-monotone ORDER BY (only a scan serves it) leave the
        statement as written; otherwise the planner's choice becomes a
        ``layer <= k`` bound, an index hint, or nothing for a scan.
        """
        if (
            query.explain
            or query.index_hint is not None
            or query.layer_bound is not None
            or not _monotone(query)
        ):
            return query
        chosen = self.planner.choose(query.table, query.k)
        if chosen.kind == "scan":
            return query
        return ParsedQuery(
            k=query.k,
            table=query.table,
            order_by=query.order_by,
            index_hint=chosen.index_name,
            layer_bound=query.k if chosen.kind == "layer-prefix" else None,
        )

    def _run(self, queries, batched: bool = False) -> list[ExecutionResult]:
        """Answer one statement, or a group of index-plan statements
        sharing (table, index, k), inside one ``obs.Metrics`` collector.

        Every statement's ORDER BY attributes are checked first.  The
        collector's ``query.*`` counters and plan timer are merged into
        :attr:`metrics` and its snapshot rides on every result;
        ``batched`` groups also count ``query.batches`` and record
        their size as ``extra['batch_size']``.
        """
        first = queries[0]
        relation = self._catalog.table(first.table)
        for query in queries:
            for attr in query.order_by:
                if attr not in relation.schema:
                    raise KeyError(
                        f"ORDER BY references unknown attribute {attr!r} "
                        f"on table {query.table!r}"
                    )
        local = obs.Metrics()
        with obs.collect(local):
            started = time.perf_counter()
            if first.index_hint is not None:
                results = self._execute_index(queries, relation)
            else:
                # The scan and layer-prefix plans rank over the ORDER BY
                # attributes only, in statement order.
                linear = LinearQuery(
                    list(first.order_by.values()), require_monotone=False
                )
                if first.layer_bound is not None:
                    plan = self._execute_layer_prefix
                else:
                    plan = self._execute_scan
                results = [plan(first, relation, linear)]
            elapsed = time.perf_counter() - started
            retrieved = blocks = 0
            for result in results:
                retrieved += result.retrieved
                blocks += result.blocks_read
            plan_kind = results[0].plan.split("(", 1)[0]
            local.add_time(f"query.{plan_kind}", elapsed)
            local.inc("query.count", len(results))
            if batched:
                local.inc("query.batches")
            local.inc("query.retrieved", retrieved)
            local.inc("query.blocks_read", blocks)
        self.metrics.merge(local)
        snapshot = local.as_dict()
        for result in results:
            # Every plan builds a fresh ``extra`` dict for its result.
            result.extra["metrics"] = snapshot
            if batched:
                result.extra["batch_size"] = len(results)
        return results

    def _execute_index(self, queries, relation) -> list[ExecutionResult]:
        """Index-plan statements sharing (table, index, k), answered by
        :func:`~repro.engine.cache.cached_answers`."""
        first = queries[0]
        table, index_name, k = first.table, first.index_hint, first.k
        # Indexes cover the table's float attributes in schema order;
        # attributes a statement does not rank get weight zero.
        indexed = [a.name for a in relation.schema if a.kind == "float"]
        covered = set(indexed)
        weight_rows = []
        for query in queries:
            if not query.order_by.keys() <= covered:
                unknown = [a for a in query.order_by if a not in covered]
                raise ValueError(
                    f"index {index_name!r} does not cover {unknown}"
                )
            if not _monotone(query):
                raise ValueError(
                    "monotone layered indexes cannot serve negative "
                    "weights; drop the USING INDEX hint to fall back to a "
                    "scan"
                )
            weight_rows.append(
                np.array([query.order_by.get(name, 0.0) for name in indexed])
            )
        scope = None
        if self.cache is not None:
            scope = (table, index_name, self._catalog.table_version(table))
        answers = cached_answers(
            self.cache,
            scope,
            self._catalog.index(table, index_name),
            weight_rows,
            k,
        )
        plan = f"index({index_name})"
        results = []
        for tids, retrieved, layers_scanned, state in answers:
            extra = {"layers_scanned": layers_scanned}
            if self.cache is not None:
                extra["cache"] = state
            results.append(
                ExecutionResult(
                    tids=tids,
                    rows=relation.take(tids),
                    retrieved=retrieved,
                    blocks_read=blocks_for(retrieved, self._block_size),
                    plan=plan,
                    extra=extra,
                )
            )
        return results

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
            blocks = blocks_for(retrieved, self._block_size)
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
            blocks_read=blocks_for(n, self._block_size),
            plan="scan",
        )


def _monotone(query: ParsedQuery) -> bool:
    """True when no ORDER BY weight is negative."""
    return min(query.order_by.values(), default=0.0) >= 0
