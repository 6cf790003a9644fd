"""Batched execution: execute_many == per-statement execution."""

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.relation import Relation
from repro.indexes.robust import RobustIndex


@pytest.fixture
def setup(rng):
    data = rng.random((80, 3))
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("t", ["x", "y", "z"], data))
    catalog.attach_index("t", "ri", RobustIndex(data, n_partitions=4))
    return catalog, data


WORKLOAD = [
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY x + 2*y + z",
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY 3*x + y",
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY x + y + 4*z",
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY 2*x + 2*y + z",
]


class TestExecuteMany:
    def test_matches_per_statement_execution(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        batched = executor.execute_many(WORKLOAD)
        solo = TopKExecutor(catalog)
        for statement, result in zip(WORKLOAD, batched):
            expected = solo.execute(statement)
            assert result.tids.tolist() == expected.tids.tolist()
            assert result.retrieved == expected.retrieved
            assert result.plan == expected.plan

    def test_batched_results_carry_batch_metrics(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        results = executor.execute_many(WORKLOAD)
        for result in results:
            assert result.extra["batch_size"] == len(WORKLOAD)
            counters = result.metrics["counters"]
            assert counters["query.count"] == len(WORKLOAD)
            assert counters["query.batches"] == 1
            assert counters["index.batch.queries"] == len(WORKLOAD)
            assert "query.index" in result.metrics["timers"]
        assert executor.metrics.counters["query.count"] == len(WORKLOAD)

    def test_mixed_plans_fall_back(self, setup):
        catalog, data = setup
        layers = appri_layers(data, n_partitions=4)
        store = materialize_layers(catalog, "t", layers)
        executor = TopKExecutor(catalog)
        executor.register_store("t", store)
        mixed = WORKLOAD + [
            "SELECT TOP 6 FROM t WHERE layer <= 6 ORDER BY x + y + z",
            "SELECT TOP 6 FROM t ORDER BY x - y",  # negative weight: scan
        ]
        results = executor.execute_many(mixed)
        solo = TopKExecutor(catalog)
        solo.register_store("t", store)
        for statement, result in zip(mixed, results):
            assert (
                result.tids.tolist()
                == solo.execute_auto(statement).tids.tolist()
            )
        assert results[-2].plan.startswith("layer-prefix")
        assert results[-1].plan == "scan"

    def test_each_statement_is_planned_once(self, setup):
        catalog, data = setup
        catalog.create_table(Relation.from_matrix("p", ["x", "y", "z"], data))
        store = materialize_layers(
            catalog, "p", appri_layers(data, n_partitions=4)
        )
        plain = [
            f"SELECT TOP {k} FROM p ORDER BY x + y + z" for k in range(1, 9)
        ]
        for run in ("execute_auto", "execute_many"):
            executor = TopKExecutor(catalog)
            executor.register_store("p", store)
            planner = executor.planner
            calls = []
            choose = planner.choose

            def counting_choose(table, k):
                calls.append(k)
                return choose(table, k)

            planner.choose = counting_choose
            if run == "execute_auto":
                results = [executor.execute_auto(s) for s in plain]
            else:
                results = executor.execute_many(plain)
            assert calls == list(range(1, 9)), run
            assert all(r.plan.startswith("layer-prefix") for r in results)

    def test_unhinted_statements_route_through_planner(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        plain = ["SELECT TOP 5 FROM t ORDER BY x + y + z"] * 3
        results = executor.execute_many(plain)
        solo = TopKExecutor(catalog)
        for statement, result in zip(plain, results):
            assert (
                result.tids.tolist()
                == solo.execute_auto(statement).tids.tolist()
            )

    def test_cache_warm_second_round(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog, cache_size=64)
        cold = executor.execute_many(WORKLOAD)
        warm = executor.execute_many(WORKLOAD)
        for a, b in zip(cold, warm):
            assert a.tids.tolist() == b.tids.tolist()
            assert b.extra["cache"] == "hit"
            assert b.retrieved == 0
        counters = executor.cache.metrics.counters
        assert counters["cache.hits"] == len(WORKLOAD)
        assert counters["cache.misses"] == len(WORKLOAD)

    def test_empty_and_explain(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        assert executor.execute_many([]) == []
        results = executor.execute_many(
            ["EXPLAIN SELECT TOP 5 FROM t ORDER BY x + y"]
        )
        assert results[0].plan == "explain"

    def test_distinct_k_groups_still_exact(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        mixed_k = [
            f"SELECT TOP {k} FROM t USING INDEX ri ORDER BY x + 2*y + z"
            for k in (3, 12, 3, 25)
        ]
        results = executor.execute_many(mixed_k)
        solo = TopKExecutor(catalog)
        for statement, result in zip(mixed_k, results):
            assert (
                result.tids.tolist() == solo.execute(statement).tids.tolist()
            )
