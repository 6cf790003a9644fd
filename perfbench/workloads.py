"""The benchmark's three workloads.

Each workload builds its own index from seeded generated data, drives
the program's public API from one client thread in a closed loop (the
next request is issued when the previous answer is back, as callers of
an in-process library do), keeps a log of every answer, and checks the
log against a full scan after the timed phase.

``sql-point``
    One statement at a time through ``TopKExecutor.execute_auto`` over
    ``uniform(20_000, 2)`` with an exact (kinetic) robust index, a
    materialized layer column and a layer-ordered store.  Fresh
    Dirichlet weights per statement, so the result cache never hits.
    Mix: 50% ``USING INDEX``, 25% ``WHERE layer <= k``, 25% unhinted.
    Measures the SQL wrapper around a cheap index probe.
``sql-batch``
    ``execute_many`` calls of 64 unhinted statements over
    ``uniform(10_000, 4)`` with an AppRI index that was saved as a
    snapshot and served after an mmap load into a fresh catalog.
    Weights come from a pool of 20,000 Dirichlet vectors with Zipf(1)
    popularity, against a 1,024-entry cache: hits, truncations,
    deepenings and evictions all occur.  Measures the GEMM plus
    batch top-k path.
``churn``
    ``DynamicRobustIndex`` over integer-rounded ``cover3d`` data (ties),
    with the program's ``RebuildManager`` re-tightening in a background
    thread.  90% reads, 5% inserts, 5% deletes.  The only workload that
    runs dynamic maintenance, view republish and background rebuilds.
    Traffic runs in rounds of a fixed operation count, each starting
    from the same freshly built index, so the rows a read touches
    depend on the operation sequence and not on how fast it ran.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle import count_failures, replay_churn, scan_top_k
from repro.data.real import cover3d
from repro.data.synthetic import uniform
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.rebuild import RebuildManager
from repro.engine.relation import Relation
from repro.indexes.dynamic import DynamicRobustIndex
from repro.indexes.robust import ExactRobustIndex, RobustIndex
from repro.queries.ranking import LinearQuery

__all__ = ["WORKLOADS", "Phase", "SqlPoint", "SqlBatch", "Churn"]

#: Independent random streams derived from the one workload seed.
DATA, TRAFFIC, WARMUP, POOL, INSERTS = range(5)

TABLE = "pts"

#: Statements generated per draw from a traffic stream.
_CHUNK = 1024


def stream_seed(seed: int, stream: int) -> int:
    """An integer seed for ``stream``, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _order_by(weights, attributes) -> tuple[str, np.ndarray]:
    """An ORDER BY expression and the weights its literals denote.

    The SQL dialect has no exponent syntax, so weights are written in
    fixed point; the oracle scores with the values of those literals.
    """
    literals = [f"{w:.17f}" for w in weights]
    expression = " + ".join(f"{x}*{a}" for x, a in zip(literals, attributes))
    return expression, np.array([float(x) for x in literals])


@dataclass
class Phase:
    """What one timed phase observed.

    ``requests`` holds one latency per client request (a statement, an
    ``execute_many`` call or a churn read); ``kinds`` the latencies of
    every operation by kind; ``busy_s`` the sum of all operation latencies,
    i.e. the time the client spent waiting on the program.
    """

    requests: list = field(default_factory=list)
    kinds: dict = field(default_factory=dict)
    busy_s: float = 0.0
    ops: int = 0
    rows_read: list = field(default_factory=list)
    blocks_read: list = field(default_factory=list)
    plans: Counter = field(default_factory=Counter)
    answers: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: list = field(default_factory=list)
    rebuild_metrics: list = field(default_factory=list)

    def timed(self, kind: str, seconds: float) -> None:
        self.kinds.setdefault(kind, []).append(seconds)
        self.busy_s += seconds


class SqlPoint:
    """Per-statement serving through ``execute_auto``."""

    name = "sql-point"
    d = 2
    ks = (1, 5, 10, 20, 50)

    def __init__(self, seed: int, workdir: Path, n: int = 20_000):
        self.seed, self.n = seed, n
        self.attributes = [f"a{i}" for i in range(self.d)]
        self._traffic = self._statements(TRAFFIC)

    def build(self) -> dict:
        data = uniform(self.n, self.d, seed=stream_seed(self.seed, DATA))
        catalog = Catalog()
        catalog.create_table(Relation.from_matrix(TABLE, self.attributes, data))
        index = ExactRobustIndex(data, engine="kinetic")
        catalog.attach_index(TABLE, "eri", index)
        store = materialize_layers(catalog, TABLE, index.layers)
        executor = TopKExecutor(catalog, cache_size=1024)
        executor.register_store(TABLE, store)
        return {"data": data, "executor": executor}

    def close(self, served) -> None:
        pass

    def _statements(self, stream: int):
        gen = stream_rng(self.seed, stream)
        while True:
            weights = gen.dirichlet(np.ones(self.d), size=_CHUNK)
            ks = gen.choice(self.ks, size=_CHUNK)
            plans = gen.random(_CHUNK)
            for w, k, u in zip(weights, ks, plans):
                if u < 0.5:
                    hint = " USING INDEX eri"
                elif u < 0.75:
                    hint = f" WHERE layer <= {k}"
                else:
                    hint = ""
                expression, written = _order_by(w, self.attributes)
                yield (f"SELECT TOP {k} FROM {TABLE}{hint} "
                       f"ORDER BY {expression}", (written, int(k)))

    def warmup(self, served) -> None:
        # Builds the planner statistics and the per-k prefix views.
        statements = self._statements(WARMUP)
        for _ in range(200):
            served["executor"].execute_auto(next(statements)[0])

    def serve(self, served, seconds: float, recorder) -> Phase:
        phase = Phase()
        execute = served["executor"].execute_auto
        traffic, clock = self._traffic, time.perf_counter
        deadline = clock() + seconds
        while clock() < deadline:
            statement, key = next(traffic)
            phase.attempted += 1
            with recorder.request("client.statement", phase.attempted):
                started = clock()
                try:
                    result = execute(statement)
                except Exception as exc:  # counted as a failed answer
                    phase.answers.append((key, None, exc))
                    continue
                elapsed = clock() - started
            phase.requests.append(elapsed)
            phase.timed("statement", elapsed)
            phase.ops += 1
            phase.answers.append((key, result.tids, None))
            phase.rows_read.append(result.retrieved)
            phase.blocks_read.append(result.blocks_read)
            phase.plans[result.plan.split("(", 1)[0]] += 1
            # Freed here, not when the next answer is bound in the
            # timed region.
            result = None
        return phase

    def check(self, served, phase: Phase) -> int:
        data = served["data"]
        return count_failures(phase.answers,
                              lambda key: scan_top_k(data, *key))


class SqlBatch:
    """Batched serving through ``execute_many`` after a snapshot restart."""

    name = "sql-batch"
    d = 4
    ks = (10, 20, 50)
    batch = 64
    pool_size = 20_000

    def __init__(self, seed: int, workdir: Path, n: int = 10_000,
                 pool_size: int | None = None):
        self.seed, self.n = seed, n
        self.workdir = Path(workdir)
        if pool_size is not None:
            self.pool_size = pool_size
        self.attributes = [f"a{i}" for i in range(self.d)]
        self.pool = stream_rng(seed, POOL).dirichlet(
            np.ones(self.d), size=self.pool_size
        )
        popularity = 1.0 / np.arange(1, self.pool_size + 1)
        self._popularity = popularity / popularity.sum()
        self._orders = [_order_by(w, self.attributes) for w in self.pool]
        self._texts: dict = {}
        self._traffic = self._keys(TRAFFIC)

    def build(self) -> dict:
        data = uniform(self.n, self.d, seed=stream_seed(self.seed, DATA))
        catalog = Catalog()
        catalog.create_table(Relation.from_matrix(TABLE, self.attributes, data))
        catalog.attach_index(TABLE, "ri", RobustIndex(data))
        self.workdir.mkdir(parents=True, exist_ok=True)
        snapshots = Path(tempfile.mkdtemp(prefix="snap-", dir=self.workdir))
        catalog.save_index_snapshots(snapshots)
        restarted = Catalog()
        restarted.create_table(
            Relation.from_matrix(TABLE, self.attributes, data)
        )
        restarted.load_index_snapshots(snapshots)
        executor = TopKExecutor(restarted, cache_size=1024)
        return {"data": data, "executor": executor, "snapshots": snapshots}

    def close(self, served) -> None:
        shutil.rmtree(served["snapshots"], ignore_errors=True)

    def _keys(self, stream: int):
        gen = stream_rng(self.seed, stream)
        while True:
            picks = gen.choice(self.pool_size, size=_CHUNK, p=self._popularity)
            ks = gen.choice(self.ks, size=_CHUNK)
            yield from zip(picks.tolist(), ks.tolist())

    def _text(self, key) -> str:
        text = self._texts.get(key)
        if text is None:
            pick, k = key
            text = (f"SELECT TOP {k} FROM {TABLE} "
                    f"ORDER BY {self._orders[pick][0]}")
            self._texts[key] = text
        return text

    def warmup(self, served) -> None:
        # Fills the result cache to its steady state before timing.
        keys = self._keys(WARMUP)
        for _ in range(150):
            batch = [self._text(next(keys)) for _ in range(self.batch)]
            served["executor"].execute_many(batch)

    def serve(self, served, seconds: float, recorder) -> Phase:
        phase = Phase()
        execute_many = served["executor"].execute_many
        traffic, clock = self._traffic, time.perf_counter
        deadline = clock() + seconds
        calls = 0
        while clock() < deadline:
            keys = [next(traffic) for _ in range(self.batch)]
            statements = [self._text(key) for key in keys]
            phase.attempted += len(keys)
            calls += 1
            with recorder.request("client.batch", calls):
                started = clock()
                try:
                    results = execute_many(statements)
                except Exception as exc:  # every statement of the call failed
                    phase.answers.extend((key, None, exc) for key in keys)
                    continue
                elapsed = clock() - started
            phase.requests.append(elapsed)
            phase.timed("batch", elapsed)
            phase.ops += len(keys)
            for key, result in zip(keys, results):
                phase.answers.append((key, result.tids, None))
                phase.rows_read.append(result.retrieved)
                phase.blocks_read.append(result.blocks_read)
                phase.plans[result.plan.split("(", 1)[0]] += 1
            # Freed here, not when the next answers are bound in the
            # timed region.
            results = result = None
        return phase

    def check(self, served, phase: Phase) -> int:
        # Prefix-closed: the scan's top-k is the first k of its top-max(k).
        data, deepest, memo = served["data"], max(self.ks), {}

        def expected(key):
            pick, k = key
            best = memo.get(pick)
            if best is None:
                written = self._orders[pick][1]
                best = memo[pick] = scan_top_k(data, written, deepest)
            return best[:k]

        return count_failures(phase.answers, expected)


class Churn:
    """Reads beside inserts and deletes, with background rebuilds."""

    name = "churn"
    ks = (1, 5, 10, 20, 50)
    round_ops = 1200
    #: Read / insert / delete shares of the operation mix.
    mix = (0.90, 0.05, 0.05)

    def __init__(self, seed: int, workdir: Path, n: int = 10_000,
                 round_ops: int | None = None):
        self.seed, self.n = seed, n
        if round_ops is not None:
            self.round_ops = round_ops
        self._gen = stream_rng(seed, TRAFFIC)
        self._inserts = np.round(
            cover3d(seed=stream_seed(seed, INSERTS), n=4096)
        )
        self._next_insert = 0

    def build(self) -> dict:
        data = np.round(cover3d(seed=stream_seed(self.seed, DATA), n=self.n))
        index = DynamicRobustIndex(data)
        return {"data": data, "state": index.export_state()}

    def close(self, served) -> None:
        pass

    def _round(self) -> list:
        """One round's operations: (op, argument, k, query)."""
        gen, ops, size = self._gen, [], self.n
        # Exact shares in every round, in random order.
        counts = np.round(np.array(self.mix) * self.round_ops).astype(int)
        kinds = gen.permutation(np.repeat(np.arange(3), counts))
        for kind in kinds:
            if kind == 0:
                weights = gen.dirichlet(np.ones(3))
                k = int(gen.choice(self.ks))
                ops.append(("read", weights, k, LinearQuery(weights)))
            elif kind == 1:
                row = self._inserts[self._next_insert % len(self._inserts)]
                self._next_insert += 1
                ops.append(("insert", row, None, None))
                size += 1
            else:
                ops.append(("delete", int(gen.integers(size)), None, None))
                size -= 1
        return ops

    def warmup(self, served) -> None:
        index = DynamicRobustIndex.from_state(*served["state"])
        for k in self.ks:
            index.query(LinearQuery(np.ones(3)), k)

    def serve(self, served, seconds: float, recorder) -> Phase:
        phase = Phase()
        clock = time.perf_counter
        measured = 0.0
        while not phase.rounds or measured < seconds:
            ops = self._round()
            index = DynamicRobustIndex.from_state(*served["state"])
            query, insert, delete = index.query, index.insert, index.delete
            log, reads = [], []
            manager = RebuildManager(index)
            round_started = clock()
            manager.start()
            try:
                for op, arg, k, linear in ops:
                    phase.attempted += 1
                    with recorder.request(f"client.{op}", phase.attempted):
                        started = clock()
                        try:
                            if op == "read":
                                answer = query(linear, k)
                                result = answer.tids
                            elif op == "insert":
                                result = insert(arg)
                            else:
                                result = delete(arg)
                        except Exception as exc:  # counted as a failure
                            log.append((op, arg, k, None, exc))
                            continue
                        elapsed = clock() - started
                    phase.timed(op, elapsed)
                    phase.ops += 1
                    log.append((op, arg, k, result, None))
                    if op == "read":
                        phase.requests.append(elapsed)
                        reads.append(answer.retrieved)
                round_ended = clock()
            finally:
                manager.stop(timeout=None)
            round_seconds = round_ended - round_started
            measured += round_seconds
            phase.rows_read.extend(reads)
            phase.rebuild_metrics.append(manager.metrics)
            phase.rounds.append({
                "log": log,
                "reads": reads,
                "window": (round_started, round_ended),
                "staleness_end": index.staleness,
                "rebuild_error": manager.last_error,
            })
        return phase

    def check(self, served, phase: Phase) -> int:
        failed = 0
        for round_ in phase.rounds:
            failed += replay_churn(served["data"], round_["log"])
            if round_["rebuild_error"] is not None:
                failed += 1
        return failed


WORKLOADS = {w.name: w for w in (SqlPoint, SqlBatch, Churn)}
