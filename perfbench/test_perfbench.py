"""Tests of the benchmark itself: oracle, churn mirror, spans, output.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run._use_checkout_sources()

from oracle import (ChurnMirror, count_failures,  # noqa: E402
                    replay_churn, scan_top_k)
from report import END_TO_END, PER_LAYER  # noqa: E402
from repro.indexes.dynamic import DynamicRobustIndex  # noqa: E402
from repro.queries.ranking import LinearQuery  # noqa: E402
from spans import SpanRecorder, layer_share, self_times  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

#: Data and traffic sizes small enough for a run of about a second.
#: The sql-batch weight pool stays larger than the 1,024-entry cache, as
#: in the full workload, so cache misses reach ``query_batch``.
TINY = {
    "sql-point": {"n": 300},
    "sql-batch": {"n": 300, "pool_size": 4000},
    "churn": {"n": 300, "round_ops": 60},
}

#: Wrapped functions each workload's serving phase must call; a hook
#: that records nothing here has lost its target.
EXPECTED_SPANS = {
    "sql-point": {"sql.parse", "planner.choose", "executor.execute_auto",
                  "executor.execute", "relation.matrix", "relation.take",
                  "storage.read_prefix", "cache.lookup", "cache.store",
                  "index.query"},
    "sql-batch": {"sql.parse", "planner.choose", "executor.execute_many",
                  "relation.take", "cache.lookup", "cache.store",
                  "index.query_batch", "qkernel.batch_topk"},
    "churn": {"dynamic.query", "dynamic.insert", "dynamic.delete",
              "dynamic.layer_for_new_tuple", "qkernel.topk_select"},
}


def test_scan_matches_linear_query_top_k_on_ties():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 4, size=(400, 3)).astype(float)
    for _ in range(50):
        weights = rng.integers(0, 3, size=3).astype(float)
        if not weights.any():
            continue
        for k in (1, 7, 50, 400, 500):
            expected = LinearQuery(weights).top_k(data, k)
            assert np.array_equal(scan_top_k(data, weights, k), expected)


def test_oracle_flags_wrong_tids_and_exceptions():
    data = np.random.default_rng(0).random((50, 2))
    weights = np.array([0.3, 0.7])
    right = scan_top_k(data, weights, 5)
    wrong = right.copy()
    wrong[[0, 1]] = wrong[[1, 0]]

    def expected(key):
        return scan_top_k(data, weights, key)

    assert count_failures([(5, right, None)], expected) == 0
    assert count_failures([(5, wrong, None)], expected) == 1
    assert count_failures([(5, right[:4], None)], expected) == 1
    assert count_failures([(5, None, RuntimeError("boom"))], expected) == 1


def test_churn_replay_flags_wrong_tids_and_exceptions():
    base = np.random.default_rng(1).random((20, 3))
    w = np.array([0.2, 0.3, 0.5])
    good = scan_top_k(base, w, 3)
    assert replay_churn(base, [("read", w, 3, good, None)]) == 0
    assert replay_churn(base, [("read", w, 3, good[::-1], None)]) == 1
    assert replay_churn(base, [("insert", base[0], None, 3, None)]) == 1
    assert replay_churn(base, [("delete", 0, None, None,
                                IndexError("gone"))]) == 1


def test_churn_mirror_matches_dynamic_index_tids():
    rng = np.random.default_rng(5)
    base = np.round(rng.random((40, 3)) * 5)
    index = DynamicRobustIndex(base, n_partitions=4)
    mirror = ChurnMirror(base)
    log = []
    for step in range(30):
        if step % 3 == 0:
            row = np.round(rng.random(3) * 5)
            tid = index.insert(row)
            assert tid == mirror.insert(row)
            log.append(("insert", row, None, tid, None))
        elif step % 3 == 1:
            position = int(rng.integers(index.size))
            index.delete(position)
            mirror.delete(position)
            log.append(("delete", position, None, None, None))
        assert np.array_equal(index.points, mirror.points)
        weights = rng.dirichlet(np.ones(3))
        tids = index.query(LinearQuery(weights), 7).tids
        assert np.array_equal(tids, mirror.top_k(weights, 7))
        log.append(("read", weights, 7, tids, None))
    assert replay_churn(base, log) == 0


def test_spans_nest_and_self_times_add_up():
    recorder = SpanRecorder()
    spans = [
        (0, "client.x", 0.0, 10.0, -1, 1),
        (1, "a", 1.0, 6.0, 0, 1),
        (2, "b", 2.0, 3.0, 1, 1),
        (3, "c", 7.0, 9.0, 0, 1),
    ]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 4.0, 2: 1.0, 3: 2.0}
    assert sum(selfs.values()) == 10.0
    assert recorder.request("client.x", 1).__class__.__name__ == "_NoRequest"


def test_layer_share_drops_when_a_layer_is_not_wrapped():
    spans = [
        (0, "client.x", 0.0, 10.0, -1, 1),
        (1, "a", 1.0, 6.0, 0, 1),
        (2, "b", 2.0, 3.0, 1, 1),
        (3, "c", 7.0, 9.0, 0, 1),
    ]
    assert layer_share(spans) == pytest.approx(0.7)
    unwrapped_c = [s for s in spans if s[1] != "c"]
    assert layer_share(unwrapped_c) == pytest.approx(0.5)
    assert layer_share([]) == 0.0


def test_install_and_remove_restore_every_function():
    import repro.indexes.robust as robust
    from repro.engine.executor import TopKExecutor

    originals = (robust.batch_topk, TopKExecutor.__dict__["execute"])
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert robust.batch_topk is not originals[0]
        with pytest.raises(RuntimeError):
            recorder.install()
    finally:
        recorder.remove()
    assert (robust.batch_topk, TopKExecutor.__dict__["execute"]) == originals


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, traced):
    record = run.run_workload(workload, seed=7, seconds=1, traced=traced,
                              **TINY[workload])
    result = record["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if traced else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert all(m["samples"] >= 1 for m in record["metrics"].values())
    else:
        layers = result["metrics"]
        assert 0.5 < layers["trace.accounted_share"]["value"] <= 1.0
        assert EXPECTED_SPANS[workload] <= set(record["spans"])
        dynamic = layers["dynamic.query_us"]["value"]
        assert (dynamic > 0) == (workload == "churn")
        if workload == "sql-batch":
            assert layers["relation.matrix_calls_per_stmt"]["value"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
