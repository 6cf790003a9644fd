"""Every serving path of the executor against ``LinearQuery.top_k``.

Integer-valued data with duplicated rows makes exact score ties
common, so the ``(score, tid)`` rule decides most answers.  Each
statement is run through every plan (index, layer prefix with and
without a registered store, scan), through ``execute``,
``execute_auto`` and ``execute_many``, with the result cache off, cold
and warm.
"""

import itertools

import numpy as np
import pytest

from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.relation import Relation
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery

#: ORDER BY expressions and the weights they denote over (x, y, z).
#: The second is the first rescaled by 2, which the cache serves from
#: the first's entry.
EXPRESSIONS = (
    ("x + y + z", [1, 1, 1]),
    ("2*x + 2*y + 2*z", [2, 2, 2]),
    ("x + 2*y", [1, 2, 0]),
    ("z", [0, 0, 1]),
    ("3*z + y + 0.5*x", [0.5, 1, 3]),
)
KS = (1, 5, 17, 60, 200)


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(8)
    base = np.round(rng.random((120, 3)) * 4)
    data = np.vstack([base, base[:60]])  # 60 duplicated rows
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("t", ["x", "y", "z"], data))
    index = RobustIndex(data, n_partitions=4)
    catalog.attach_index("t", "ri", index)
    store = materialize_layers(catalog, "t", index.layers, block_size=16)
    return data, catalog, store


def _statements():
    """(statement, expected plan prefix or None when the planner or
    the entry point decides, weights, k) for every plan and query."""
    for (expression, weights), k in itertools.product(EXPRESSIONS, KS):
        head = f"SELECT TOP {k} FROM t"
        tail = f"ORDER BY {expression}"
        yield f"{head} USING INDEX ri {tail}", "index(ri)", weights, k
        yield f"{head} WHERE layer <= {k} {tail}", "layer-prefix", weights, k
        yield f"{head} {tail}", None, weights, k


@pytest.mark.parametrize("cache_size", [0, 512])
@pytest.mark.parametrize("with_store", [True, False])
def test_every_path_matches_a_full_scan(world, with_store, cache_size):
    data, catalog, store = world
    executor = TopKExecutor(catalog, block_size=16, cache_size=cache_size)
    if with_store:
        executor.register_store("t", store)
    cases = list(_statements())
    texts = [statement for statement, *_ in cases]
    runs = []
    for _ in range(2):  # the second pass hits a warm cache
        runs.append([executor.execute(s) for s in texts])
        runs.append([executor.execute_auto(s) for s in texts])
        runs.append(executor.execute_many(texts))
    for results in runs:
        for (statement, plan, weights, k), result in zip(cases, results):
            expected = LinearQuery(weights).top_k(data, k)
            assert result.tids.tolist() == expected.tolist(), statement
            assert result.rows.n_rows == len(expected)
            assert np.array_equal(
                result.rows.matrix(["x", "y", "z"]), data[expected]
            )
            if plan is not None:
                assert result.plan.startswith(plan), statement
    # The plain statements run as a scan under ``execute``.
    plain = [r for (_, plan, *_), r in zip(cases, runs[0]) if plan is None]
    assert {r.plan for r in plain} == {"scan"}
    if cache_size:
        warm = runs[3] + runs[4] + runs[5]
        states = {r.extra.get("cache") for r in warm if r.plan == "index(ri)"}
        assert states == {"hit"}
        assert executor.cache.metrics.counters["cache.misses"] > 0
    else:
        assert executor.cache is None


@pytest.mark.parametrize("cache_size", [0, 512])
def test_unknown_attribute_raises_the_same_error_everywhere(world, cache_size):
    _, catalog, _ = world
    executor = TopKExecutor(catalog, cache_size=cache_size)
    statements = (
        "SELECT TOP 5 FROM t USING INDEX ri ORDER BY x + zz",
        "SELECT TOP 5 FROM t ORDER BY x + zz",
        "SELECT TOP 5 FROM t WHERE layer <= 5 ORDER BY zz",
    )
    entry_points = (
        executor.execute,
        executor.execute_auto,
        lambda s: executor.execute_many([s]),
    )
    for statement, run in itertools.product(statements, entry_points):
        with pytest.raises(KeyError, match="unknown attribute 'zz'"):
            run(statement)
