"""Metric derivation: end-to-end figures, per-layer figures, run context.

:data:`END_TO_END` and :data:`PER_LAYER` list every metric the
benchmark prints, with its unit; ``BENCHMARK.json`` lists the same
names and the tests keep the two in step.  End-to-end metrics come from
an untraced phase.  Per-layer metrics come from the traced phase's
spans (see :mod:`spans`) and from the ``repro.obs`` counters and timers
the program already keeps, read through ``obs.collect``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path

import numpy as np

from repro import obs
from spans import layer_share, self_times, span_totals

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer", "detail",
           "environment"]

#: (name, unit) of every end-to-end metric; every workload reports all.
#: A "request" is one statement on sql-point, one ``execute_many`` call
#: of 64 statements on sql-batch and one read on churn; an "operation"
#: is a statement on the SQL workloads and a read, insert or delete on
#: churn, and its latency is that of the request that carried it.
#: Latencies are reported as high quantiles, not means: the host's
#: speed alternates between a fast and a slow state, so per-call
#: latencies are bimodal and the share of slow calls moves a run's mean
#: (and median) by ~20%, while the p95 and p97.5 stay in the slow
#: state's range unless the whole run falls in a fast period.
#: ``op_p97.5_us`` falls in the middle of churn's inserts (5% of its
#: operations; reads and deletes are the other 95%), so write cost is
#: gated too.  The tail is not p99: sql-batch completes only ~1,000
#: calls in a twelve-second run, and ~1% of churn reads stall behind
#: the rebuild thread.
END_TO_END = (
    ("setup_s", "s"),
    ("request_p95_us", "us"),
    ("op_p97.5_us", "us"),
    ("rows_read_per_answer", "rows"),
    ("peak_rss_mb", "MiB"),
)

#: (name, unit) of every per-layer metric.  A layer a workload does not
#: use reports 0.
PER_LAYER = (
    ("sql.parse_us", "us"),
    ("planner.choose_us", "us"),
    ("planner.calls_per_stmt", "count"),
    ("executor.self_us", "us"),
    ("executor.batch_self_ms", "ms"),
    ("executor.plan_index_share", "ratio"),
    ("executor.plan_layer_prefix_share", "ratio"),
    ("executor.plan_scan_share", "ratio"),
    ("relation.matrix_us", "us"),
    ("relation.matrix_calls_per_stmt", "count"),
    ("relation.take_us", "us"),
    ("storage.read_prefix_us", "us"),
    ("storage.blocks_per_answer", "blocks"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.store_us", "us"),
    ("cache.evictions_per_stmt", "count"),
    ("cache.deepenings_per_stmt", "count"),
    ("index.query_us", "us"),
    ("index.candidates_per_query", "rows"),
    ("index.query_batch_ms", "ms"),
    ("index.batch_rows", "rows"),
    ("index.batch_gemm_ms", "ms"),
    ("qkernel.batch_topk_ms", "ms"),
    ("qkernel.topk_select_us", "us"),
    ("snapshot.save_s", "s"),
    ("snapshot.load_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("exact.build_s", "s"),
    ("exact.events", "count"),
    ("exact.probes", "count"),
    ("exact.windows", "count"),
    ("build.total_s", "s"),
    ("build.phase.dominators_s", "s"),
    ("build.phase.levels_s", "s"),
    ("counting.kernel_s", "s"),
    ("dynamic.query_us", "us"),
    ("dynamic.layer_for_new_tuple_ms", "ms"),
    ("dynamic.insert_self_ms", "ms"),
    ("dynamic.delete_ms", "ms"),
    ("dynamic.staleness_end", "count"),
    ("dynamic.rows_read_growth", "ratio"),
    ("rebuild.runs", "count"),
    ("rebuild.swaps", "count"),
    ("rebuild.discarded", "count"),
    ("rebuild.commit_ratio", "ratio"),
    ("rebuild.busy_share", "ratio"),
    ("rebuild.build_s", "s"),
    ("rebuild.read_p50_overlap_us", "us"),
    ("rebuild.read_p50_idle_us", "us"),
    ("client.self_us", "us"),
    ("trace.accounted_share", "ratio"),
    ("trace.spans_per_request", "count"),
    ("trace.overhead", "ratio"),
)


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def _percentile(samples, q) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, phase) -> dict:
    """name -> (value, unit, samples) from an untraced run."""
    requests = phase.requests
    operations = [t for times in phase.kinds.values() for t in times]
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "request_p95_us": (_percentile(requests, 95) * 1e6, "us",
                           len(requests)),
        "op_p97.5_us": (_percentile(operations, 97.5) * 1e6, "us",
                        len(operations)),
        "rows_read_per_answer": (float(np.mean(phase.rows_read))
                                 if phase.rows_read else 0.0, "rows",
                                 len(phase.rows_read)),
        "peak_rss_mb": (peak_rss_mb(), "MiB", 1),
    }


def detail(workload: str, phase) -> list:
    """The workload's own figures that :func:`end_to_end` does not carry.

    ``(name, value, unit, samples)`` rows, printed with the report and
    not part of the result line.
    """
    lat = phase.requests

    def pct(name, samples, q, scale, unit):
        return (name, _percentile(samples, q) * scale, unit, len(samples))

    if workload == "sql-point":
        rows = [pct("stmt_p50_us", lat, 50, 1e6, "us"),
                pct("stmt_p99_us", lat, 99, 1e6, "us")]
    elif workload == "sql-batch":
        rows = [("batch_stmts_per_s", _ratio(phase.ops, phase.busy_s),
                 "statements/s", phase.ops),
                pct("batch_p99_ms", lat, 99, 1e3, "ms")]
    else:
        inserts = phase.kinds.get("insert", [])
        deletes = phase.kinds.get("delete", [])
        rows = [pct("read_p50_us", lat, 50, 1e6, "us"),
                pct("read_p99_us", lat, 99, 1e6, "us"),
                pct("insert_p50_ms", inserts, 50, 1e3, "ms"),
                pct("insert_p90_ms", inserts, 90, 1e3, "ms"),
                pct("delete_p50_ms", deletes, 50, 1e3, "ms"),
                pct("delete_p90_ms", deletes, 90, 1e3, "ms")]
    rows.append(("failed_frac", _ratio(phase.failed, phase.attempted),
                 "ratio", phase.attempted))
    return rows


def _overlap(start, end, intervals) -> float:
    """Seconds of [start, end] that fall inside any of ``intervals``."""
    return sum(max(0.0, min(end, e) - max(start, s)) for s, e in intervals)


def per_layer(setup_spans, setup_obs, spans, serve_obs, phase,
              untraced_phase) -> dict:
    """name -> (value, unit) for every metric in :data:`PER_LAYER`.

    ``setup_spans``/``setup_obs`` cover one traced set-up,
    ``spans``/``serve_obs`` the traced serving phase, ``phase`` what
    the client saw in it and ``untraced_phase`` the same traffic served
    without tracing (for ``trace.overhead``).
    """
    setup = span_totals(setup_spans)
    serve = span_totals(spans)
    counters = serve_obs.counters
    build_counters, build_timers = setup_obs.counters, setup_obs.timers
    statements = sum(phase.plans.values())

    def mean(totals, name, scale, field="total"):
        entry = totals.get(name)
        return entry[field] / entry["count"] * scale if entry else 0.0

    def total(totals, name, field="total"):
        entry = totals.get(name)
        return entry[field] if entry else 0.0

    def count(totals, name):
        entry = totals.get(name)
        return entry["count"] if entry else 0

    executor_self = sum(
        total(serve, name, "self") for name in
        ("executor.execute_auto", "executor.execute", "executor.execute_many")
    )
    hits = counters.get("cache.hits", 0)
    lookups = hits + counters.get("cache.misses", 0)
    batches = count(serve, "index.query_batch")

    # Client requests: root spans the client loop opened.
    roots = [s for s in spans if s[4] < 0 and s[1].startswith("client.")]
    root_ids = {s[5] for s in roots}
    selfs = self_times(spans)
    client_self = sum(selfs[s[0]] for s in roots)

    # Churn: reads that overlapped a background rebuild versus idle ones.
    rebuilds = [(s[2], s[3]) for s in spans if s[1] == "rebuild.run"]
    overlap, idle = [], []
    for s in roots:
        if s[1] == "client.read":
            (overlap if _overlap(s[2], s[3], rebuilds) else idle).append(
                s[3] - s[2])
    rebuild = obs.Metrics()
    for metrics in phase.rebuild_metrics:
        rebuild.merge(metrics)
    runs = rebuild.counters.get("rebuild.runs", 0)
    swaps = rebuild.counters.get("rebuild.swaps", 0)
    windows = [r["window"] for r in phase.rounds]
    churn_seconds = sum(end - start for start, end in windows)
    rebuild_busy = sum(_overlap(s, e, windows) for s, e in rebuilds)
    growth = [
        _ratio(np.mean(r["reads"][-max(1, len(r["reads"]) // 10):]),
               np.mean(r["reads"][:max(1, len(r["reads"]) // 10)]))
        for r in phase.rounds if r["reads"]
    ]

    traced_mean = _ratio(sum(phase.requests), len(phase.requests))
    plain_mean = _ratio(sum(untraced_phase.requests),
                        len(untraced_phase.requests))

    values = {
        "sql.parse_us": mean(serve, "sql.parse", 1e6),
        "planner.choose_us": mean(serve, "planner.choose", 1e6),
        "planner.calls_per_stmt": _ratio(count(serve, "planner.choose"),
                                         statements),
        "executor.self_us": _ratio(executor_self, statements) * 1e6,
        "executor.batch_self_ms": mean(serve, "executor.execute_many", 1e3,
                                       "self"),
        "executor.plan_index_share": _ratio(phase.plans["index"], statements),
        "executor.plan_layer_prefix_share": _ratio(
            phase.plans["layer-prefix"], statements),
        "executor.plan_scan_share": _ratio(phase.plans["scan"], statements),
        "relation.matrix_us": mean(serve, "relation.matrix", 1e6),
        "relation.matrix_calls_per_stmt": _ratio(
            count(serve, "relation.matrix"), statements),
        "relation.take_us": mean(serve, "relation.take", 1e6),
        "storage.read_prefix_us": mean(serve, "storage.read_prefix", 1e6),
        "storage.blocks_per_answer": float(np.mean(phase.blocks_read))
        if phase.blocks_read else 0.0,
        "cache.hit_ratio": _ratio(hits, lookups),
        "cache.lookup_us": mean(serve, "cache.lookup", 1e6),
        "cache.store_us": mean(serve, "cache.store", 1e6),
        "cache.evictions_per_stmt": _ratio(counters.get("cache.evictions", 0),
                                           statements),
        "cache.deepenings_per_stmt": _ratio(
            counters.get("cache.deepenings", 0), statements),
        "index.query_us": mean(serve, "index.query", 1e6),
        "index.candidates_per_query": _ratio(
            counters.get("index.candidates", 0),
            counters.get("index.queries", 0)),
        "index.query_batch_ms": mean(serve, "index.query_batch", 1e3),
        "index.batch_rows": _ratio(counters.get("index.batch.candidates", 0),
                                   counters.get("index.batch.count", 0)),
        "index.batch_gemm_ms": _ratio(
            total(serve, "index.query_batch")
            - total(serve, "qkernel.batch_topk"), batches) * 1e3,
        "qkernel.batch_topk_ms": mean(serve, "qkernel.batch_topk", 1e3),
        "qkernel.topk_select_us": mean(serve, "qkernel.topk_select", 1e6),
        "snapshot.save_s": total(setup, "snapshot.save"),
        "snapshot.load_s": total(setup, "snapshot.load"),
        "snapshot.bytes": build_counters.get("snapshot.bytes_written", 0),
        "exact.build_s": total(setup, "exact.build"),
        "exact.events": build_counters.get("exact.events", 0),
        "exact.probes": build_counters.get("exact.probes", 0),
        "exact.windows": build_counters.get("exact.windows", 0),
        "build.total_s": build_timers.get("build.total", 0.0),
        "build.phase.dominators_s": build_timers.get(
            "build.phase.dominators", 0.0),
        "build.phase.levels_s": build_timers.get("build.phase.levels", 0.0),
        "counting.kernel_s": build_timers.get("counting.kernel", 0.0),
        "dynamic.query_us": mean(serve, "dynamic.query", 1e6),
        "dynamic.layer_for_new_tuple_ms": mean(
            serve, "dynamic.layer_for_new_tuple", 1e3),
        "dynamic.insert_self_ms": mean(serve, "dynamic.insert", 1e3, "self"),
        "dynamic.delete_ms": mean(serve, "dynamic.delete", 1e3),
        "dynamic.staleness_end": float(np.mean(
            [r["staleness_end"] for r in phase.rounds])) if phase.rounds
        else 0.0,
        "dynamic.rows_read_growth": float(np.mean(growth)) if growth else 0.0,
        "rebuild.runs": runs,
        "rebuild.swaps": swaps,
        "rebuild.discarded": rebuild.counters.get("rebuild.discarded", 0),
        "rebuild.commit_ratio": _ratio(swaps, runs),
        "rebuild.busy_share": _ratio(rebuild_busy, churn_seconds),
        "rebuild.build_s": _ratio(rebuild.timers.get("rebuild.build", 0.0),
                                  runs),
        "rebuild.read_p50_overlap_us": _percentile(overlap, 50) * 1e6,
        "rebuild.read_p50_idle_us": _percentile(idle, 50) * 1e6,
        "client.self_us": _ratio(client_self, len(roots)) * 1e6,
        "trace.accounted_share": layer_share(spans),
        "trace.spans_per_request": _ratio(
            sum(1 for s in spans if s[5] in root_ids), len(roots)),
        "trace.overhead": _ratio(traced_mean, plain_mean),
    }
    units = dict(PER_LAYER)
    return {name: (float(values[name]), units[name]) for name, _ in PER_LAYER}


def _git(root: Path, *args) -> str | None:
    # An exported copy has no .git; git is not asked, so it cannot
    # report on some repository that merely encloses the copy.
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if sha else None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
    }
