"""Vectorized counting kernels vs the legacy per-level build schedule.

The question this benchmark answers: how much faster does the AppRI
build get when dominance counting runs through the fused bitset
kernels (:mod:`repro.core.kernels` / :mod:`repro.dstruct.kernels`)
instead of the legacy schedule — one blocked O(n^2) dominance pass per
gamma level per side, which is what ``method="auto"`` resolved to
before the kernels existed (the pre-kernel snapshot benchmark
recorded a 94 s build at n=10k, d=4).

Per configuration, the same data is built twice:

``legacy``
    ``appri_layers(..., method="blocked")`` from
    ``tests/reference/appri_levels.py`` — the paper-faithful per-level
    schedule with the pre-kernel default engine.
``kernel``
    ``appri_build(...)`` — every system goes through one fused kernel
    call that shares bilinear columns across sides and lead columns
    across levels.

The layer arrays must be **bit-identical** (asserted), making the
speedup a pure scheduling/kernel win with zero accuracy cost.  Full
runs write ``BENCH_build_kernels.json`` at the repo root (the
acceptance evidence for the >= 10x target) plus a text report in
``benchmarks/results/``; ``--quick`` runs a tiny size for CI,
additionally cross-checking the kernel build against the reference
schedule on the ``naive`` engine, and writes only the text report.
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

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # the per-level reference is in tests/
    sys.path.append(str(REPO_ROOT))
RESULTS_DIR = Path(__file__).parent / "results"

#: (n, d, measure the legacy schedule too?).  Legacy at n=50k takes
#: most of an hour, so the 50k row times the kernel build only.
FULL_CONFIGS = ((10_000, 4, True), (50_000, 4, False))
QUICK_CONFIGS = ((400, 3, True),)
SEED = 0
N_PARTITIONS = 10

def _timed(build, *args, **kwargs):
    started = time.perf_counter()
    result = build(*args, **kwargs)
    return result, time.perf_counter() - started


def run(configs, quick: bool):
    from repro.core.appri import appri_build
    from repro.data import uniform
    from tests.reference.appri_levels import appri_layers as reference

    results = []
    lines = [
        "build kernels vs legacy per-level schedule "
        f"(B={N_PARTITIONS}, seed={SEED})",
        "",
        f"{'n':>7} {'d':>3}  {'legacy(s)':>10}  {'kernel(s)':>10}  "
        f"{'speedup':>8}  layers",
    ]
    for n, d, measure_legacy in configs:
        data = uniform(n, d, seed=SEED)
        kernel_build, kernel_seconds = _timed(
            appri_build, data, n_partitions=N_PARTITIONS
        )
        entry = {
            "n": n,
            "d": d,
            "n_partitions": N_PARTITIONS,
            "kernel_seconds": round(kernel_seconds, 4),
        }
        legacy_text = "-"
        if measure_legacy:
            legacy_layers, legacy_seconds = _timed(
                reference, data, n_partitions=N_PARTITIONS, method="blocked"
            )
            if not np.array_equal(legacy_layers, kernel_build.layers):
                raise AssertionError(
                    f"n={n}: kernel layers differ from the legacy "
                    "schedule — engines must be bit-identical"
                )
            entry["legacy_seconds"] = round(legacy_seconds, 4)
            entry["speedup_vs_legacy"] = round(
                legacy_seconds / kernel_seconds, 2
            )
            entry["layers_identical"] = True
            legacy_text = f"{legacy_seconds:10.2f}"
        if quick:
            naive = reference(data, n_partitions=N_PARTITIONS, method="naive")
            assert np.array_equal(naive, kernel_build.layers), (
                "kernel build must match the reference on the naive engine"
            )
            entry["matches_naive"] = True
        results.append(entry)
        speed = (
            f"{entry['speedup_vs_legacy']:7.2f}x"
            if "speedup_vs_legacy" in entry
            else "-".rjust(8)
        )
        lines.append(
            f"{n:>7} {d:>3}  {legacy_text:>10}  {kernel_seconds:>10.2f}  "
            f"{speed:>8}  identical"
        )
    lines.append("")
    lines.append("legacy = per-level blocked passes (pre-kernel auto)")
    return results, "\n".join(lines)


def test_build_kernel_speedup(benchmark):
    """pytest-benchmark entry: one kernel build on a small input."""
    from repro.core.appri import appri_build
    from repro.data import uniform
    from tests.reference.appri_levels import appri_layers as reference

    from conftest import publish

    data = uniform(QUICK_CONFIGS[0][0], QUICK_CONFIGS[0][1], seed=SEED)
    build = benchmark(lambda: appri_build(data, n_partitions=N_PARTITIONS))
    assert np.array_equal(
        build.layers,
        reference(data, n_partitions=N_PARTITIONS, method="naive"),
    )
    _, text = run(QUICK_CONFIGS, quick=True)
    publish("bench_build_kernels", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny CI smoke run: asserts kernel == naive reference, no JSON",
    )
    args = parser.parse_args(argv)

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    results, text = run(configs, quick=args.quick)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_build_kernels.txt").write_text(text + "\n")
    if not args.quick:
        report = {
            "benchmark": "build_kernels",
            "source": "benchmarks/bench_build_kernels.py",
            "params": {"seed": SEED, "n_partitions": N_PARTITIONS},
            "machine": machine(),
            "results": results,
        }
        out = write_report("build_kernels", report)
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
