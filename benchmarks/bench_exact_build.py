"""Shared-work exact engines vs the legacy per-tuple solvers.

The question this benchmark answers: how much faster do exact
robust-layer builds get when they run through the shared-work engines
(:func:`repro.core.exact.exact_build`) — the d = 2 ``kinetic`` engine
(one global rotating sweep over all tuples) and the d = 3 ``prune``
engine (shared lower/upper bounds, subdivision refinement for the
survivors) — instead of ``engine="legacy"``, which solves every tuple
independently from scratch.

Per configuration the engine build always runs live.  The legacy
baseline runs live where it is affordable (d = 2 at both sizes, d = 3
at n = 200, asserting **bit-identical** layers); the larger d = 3
baselines use the times recorded on this machine earlier in this
change series, and the d = 3 n = 5000 baseline is a *quadratic*
extrapolation of the measured n = 400 time — deliberately
conservative, since the measured n = 300 -> 400 growth is already
~n^3.5 (the per-tuple arrangement grows quadratically in n, and there
are n tuples to solve).

Full runs write ``BENCH_exact_build.json`` at the repo root (the
acceptance evidence for the >= 10x d = 2 and >= 5x d = 3 targets)
plus a text report in ``benchmarks/results/``; ``--quick`` runs tiny
sizes for CI, asserting engine == legacy at both dimensionalities,
and writes only the text report.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from _harness import machine, write_report

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

RESULTS_DIR = Path(__file__).parent / "results"

#: (n, d, measure the legacy solver live?).  Legacy d = 3 beyond
#: n = 200 costs tens of minutes per size (recorded below), so those
#: rows compare against the recorded/extrapolated baselines instead.
FULL_CONFIGS = (
    (5_000, 2, True),
    (10_000, 2, True),
    (200, 3, True),
    (300, 3, False),
    (400, 3, False),
    (5_000, 3, False),
)
QUICK_CONFIGS = ((256, 2, True), (64, 3, True))
SEED = 0

#: Legacy per-tuple build seconds measured on this machine while the
#: engines were developed (same data: ``uniform(n, d, seed=0)``).
RECORDED_LEGACY = {
    (5_000, 2): 25.15,
    (10_000, 2): 99.42,
    (200, 3): 64.12,
    (300, 3): 638.87,
    (400, 3): 1778.94,
}

#: d = 3, n = 5000 legacy estimate: quadratic extrapolation of the
#: measured n = 400 time, ``1778.94 * (5000 / 400) ** 2``.  The
#: measured n = 300 -> 400 growth exponent is ~3.5, so the quadratic
#: estimate understates the true cost — any speedup computed against
#: it is a lower bound.
EXTRAPOLATED_LEGACY = {(5_000, 3): round(1778.94 * (5_000 / 400) ** 2, 0)}


def run(configs, quick: bool):
    from repro.core.exact import exact_build
    from repro.data import uniform

    results = []
    lines = [
        f"exact engines vs legacy per-tuple solvers (seed={SEED})",
        "",
        f"{'n':>7} {'d':>3} {'engine':>8}  {'engine(s)':>10}  "
        f"{'legacy(s)':>10}  {'speedup':>8}  baseline",
    ]
    for n, d, measure_legacy in configs:
        data = uniform(n, d, seed=SEED)
        started = time.perf_counter()
        build = exact_build(data)
        engine_seconds = time.perf_counter() - started
        entry = {
            "n": n,
            "d": d,
            "engine": build.engine,
            "engine_seconds": round(engine_seconds, 4),
        }
        if measure_legacy:
            started = time.perf_counter()
            legacy = exact_build(data, engine="legacy")
            legacy_seconds = time.perf_counter() - started
            if not np.array_equal(legacy.layers, build.layers):
                raise AssertionError(
                    f"n={n} d={d}: {build.engine} layers differ from "
                    "legacy — engines must be bit-identical"
                )
            entry["legacy_seconds"] = round(legacy_seconds, 4)
            entry["layers_identical"] = True
            baseline = "measured"
        elif (n, d) in RECORDED_LEGACY:
            legacy_seconds = RECORDED_LEGACY[(n, d)]
            entry["legacy_seconds"] = legacy_seconds
            baseline = "recorded"
        else:
            legacy_seconds = EXTRAPOLATED_LEGACY[(n, d)]
            entry["legacy_seconds"] = legacy_seconds
            baseline = "extrapolated (quadratic lower bound)"
        entry["baseline"] = baseline
        entry["speedup_vs_legacy"] = round(legacy_seconds / engine_seconds, 2)
        results.append(entry)
        lines.append(
            f"{n:>7} {d:>3} {build.engine:>8}  {engine_seconds:>10.2f}  "
            f"{legacy_seconds:>10.2f}  "
            f"{entry['speedup_vs_legacy']:>7.1f}x  {baseline}"
        )
    lines.append("")
    lines.append(
        "engine = exact_build auto (kinetic at d=2, prune at d=3); "
        "measured = legacy ran here, layers asserted bit-identical; "
        "recorded = legacy time from this machine earlier in the "
        "series; extrapolated = quadratic in n from the recorded "
        "n=400 time (a conservative lower bound)"
    )
    return results, "\n".join(lines)


def test_exact_build_speedup(benchmark):
    """pytest-benchmark entry: one engine build on a small input."""
    from repro.core.exact import exact_build
    from repro.data import uniform

    from conftest import publish

    n, d, _ = QUICK_CONFIGS[0]
    data = uniform(n, d, seed=SEED)
    build = benchmark(lambda: exact_build(data))
    assert np.array_equal(
        build.layers, exact_build(data, engine="legacy").layers
    )
    _, text = run(QUICK_CONFIGS, quick=True)
    publish("bench_exact_build", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny CI smoke run: asserts engine == legacy, no JSON",
    )
    args = parser.parse_args(argv)

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    results, text = run(configs, quick=args.quick)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_exact_build.txt").write_text(text + "\n")
    if not args.quick:
        report = {
            "benchmark": "exact_build",
            "source": "benchmarks/bench_exact_build.py",
            "params": {"seed": SEED},
            "machine": machine(),
            "targets": {
                "d2_n10000_speedup": ">= 10x",
                "d3_n5000_speedup": ">= 5x",
            },
            "results": results,
        }
        out = write_report("exact_build", report)
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
