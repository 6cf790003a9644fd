#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sql-point --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Workloads: ``sql-point``, ``sql-batch``, ``churn`` (see workloads.py
and README.md); ``all`` runs each in a process of its own.  The program
is imported from ``src/`` next to this directory, never from an
installed copy; without it the run fails before printing a result.

``--trace 0`` sets up the index several times (``setup_s`` is the
median), serves traffic for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` sets up once with span wrappers installed,
serves half the time untraced and half traced, and prints the
per-layer metrics.  Every answer is checked against a full scan either
way.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Human-readable lines above
it give each metric with its unit and sample count plus the run's
environment; a fuller record, and in traced runs every span, goes to
``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sql-point", "sql-batch", "churn")
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def _use_checkout_sources() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources in {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def measure(workload, seconds: float):
    """Untraced run: (set-up times, the served phase with its failures)."""
    from spans import SpanRecorder

    setup_times, served = [], None
    for _ in range(SETUP_REPEATS):
        if served is not None:
            workload.close(served)
            served = None
        started = time.perf_counter()
        served = workload.build()
        setup_times.append(time.perf_counter() - started)
    try:
        workload.warmup(served)
        phase = workload.serve(served, seconds, SpanRecorder())
        phase.failed = workload.check(served, phase)
    finally:
        workload.close(served)
    return setup_times, phase


def trace(workload, seconds: float):
    """Traced run: per-layer metrics, the recorders and both phases."""
    from repro import obs
    from report import per_layer
    from spans import SpanRecorder

    setup_recorder = SpanRecorder()
    with obs.collect() as setup_obs:
        try:
            setup_recorder.install()
            served = workload.build()
        finally:
            setup_recorder.remove()
    recorder = SpanRecorder()
    try:
        workload.warmup(served)
        plain = workload.serve(served, seconds / 2, recorder)
        with obs.collect() as serve_obs:
            try:
                recorder.install()
                traced = workload.serve(served, seconds / 2, recorder)
            finally:
                recorder.remove()
        plain.failed = workload.check(served, plain)
        traced.failed = workload.check(served, traced)
    finally:
        workload.close(served)
    layers = per_layer(setup_recorder.spans, setup_obs, recorder.spans,
                       serve_obs, traced, plain)
    return layers, recorder, plain, traced


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 **sizes) -> dict:
    """Run one workload; returns the result record (see module doc).

    ``sizes`` overrides the workload's data and traffic sizes; the
    tests use it for tiny runs.
    """
    from report import detail, end_to_end, environment
    from spans import span_totals
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, OUT / "tmp", **sizes)
    record = {"workload": name, "environment": environment(ROOT, seed),
              "trace": int(traced)}
    if traced:
        layers, recorder, plain, phase = trace(workload, seconds)
        attempted = plain.attempted + phase.attempted
        failed = plain.failed + phase.failed
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in layers.items()}
        record["spans"] = span_totals(recorder.spans)
        OUT.mkdir(parents=True, exist_ok=True)
        recorder.dump(OUT / f"{name}-seed{seed}.spans.jsonl")
    else:
        setup_times, phase = measure(workload, seconds)
        attempted, failed = phase.attempted, phase.failed
        figures = end_to_end(setup_times, phase)
        metrics = {n: {"value": v, "unit": u, "samples": s}
                   for n, (v, u, s) in figures.items()}
        record["detail"] = [
            {"name": n, "value": v, "unit": u, "samples": s}
            for n, v, u, s in detail(name, phase)
        ]
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]}
                    for n, m in metrics.items()},
    }
    record["metrics"] = metrics
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']}  trace={record['trace']}  "
          + "  ".join(f"{k}={v}" for k, v in env.items()))
    result = record["result"]
    print(f"# answers checked against a full scan: {result['attempted']} "
          f"attempted, {result['failed']} failed")
    for row in record.get("detail", []):
        print(f"  {row['name']:<28} {row['value']:>14.4f} {row['unit']:<12} "
              f"n={row['samples']}")
    for name, metric in record["metrics"].items():
        samples = (f" n={metric['samples']}" if "samples" in metric else "")
        print(f"  metric {name:<33} {metric['value']:>14.4f} "
              f"{metric['unit']}{samples}")
    spans = record.get("spans")
    if spans:
        print("# spans by self time (count, total s, self s)")
        for name, entry in sorted(spans.items(), key=lambda kv: -kv[1]["self"]):
            print(f"  {name:<32} {entry['count']:>9} {entry['total']:>10.4f} "
                  f"{entry['self']:>10.4f}")


def run_all(seed: int, seconds: int, traced: int) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(traced)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not done.stdout.strip():
            status = done.returncode or 1
            continue
        summary[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    _use_checkout_sources()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print_record(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
