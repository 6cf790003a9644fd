"""Unit tests for the AppRI level pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.appri import appri_build
from repro.core.kernels import pair_level_data
from repro.core.partitioning import pair_systems
from repro.dstruct.dominance import count_dominators
from repro.obs import Metrics

from ..reference import appri_levels


class TestPlanChunks:
    def test_covers_levels_exactly(self):
        for n_levels in (1, 5, 10, 37):
            for workers in (1, 2, 8):
                chunks = pipeline.plan_chunks(n_levels, workers)
                assert chunks[0][0] == 1
                assert chunks[-1][1] == n_levels + 1
                for (_, prev_hi), (lo, _) in zip(chunks, chunks[1:]):
                    assert prev_hi == lo

    def test_no_levels(self):
        assert pipeline.plan_chunks(0, 4) == []

    def test_explicit_chunk_size(self):
        chunks = pipeline.plan_chunks(10, 2, chunk_size=3)
        assert chunks == [(1, 4), (4, 7), (7, 10), (10, 11)]

    def test_chunk_size_clamped_to_levels(self):
        assert pipeline.plan_chunks(4, 2, chunk_size=100) == [(1, 5)]


class TestLevelRangeTasks:
    @pytest.mark.parametrize("tied", [False, True])
    def test_level_ranges_tile_the_full_kernel(self, tied):
        rng = np.random.default_rng(5)
        if tied:
            pts = rng.integers(0, 4, size=(60, 3)).astype(float)
        else:
            pts = rng.random((60, 3))
        b = 7
        for pair in pair_systems(3, include_partial=False):
            full_a, full_b = pair_level_data(pts, pair, b)
            got_a = np.zeros_like(full_a)
            got_b = np.zeros_like(full_b)
            for lo, hi in pipeline.plan_chunks(b, 2, chunk_size=3):
                part_a, part_b = pair_level_data(
                    pts, pair, b, levels=range(lo, hi)
                )
                got_a += part_a
                got_b += part_b
            assert np.array_equal(got_a, full_a)
            assert np.array_equal(got_b, full_b)

    def test_b_equals_one_single_chunk(self):
        pts = np.random.default_rng(0).random((10, 2))
        pair = pair_systems(2, include_partial=False)[0]
        assert pipeline.plan_chunks(1, 4) == [(1, 2)]
        a_levels, b_levels = pair_level_data(pts, pair, 1, levels=[1])
        # Only the subspace passes exist at B = 1.
        assert a_levels.shape == (10, 2)
        assert a_levels[:, 1].any() or b_levels[:, 0].any()


class TestBuildLevelData:
    def test_matches_serial_wedge_counts(self):
        rng = np.random.default_rng(11)
        pts = rng.random((80, 3))
        b = 6
        for workers, chunk_size in ((2, 2), (1, None)):
            dominators, level_data, systems = pipeline.build_level_data(
                pts, b, include_partial=True, workers=workers,
                chunk_size=chunk_size,
            )
            assert np.array_equal(dominators, count_dominators(pts, "naive"))
            expected = pair_systems(3, include_partial=True)
            assert len(level_data) == len(expected)
            for system, (a_levels, b_levels) in zip(systems, level_data):
                ref_a, ref_b = appri_levels.serial_level_arrays(pts, system, b)
                assert np.array_equal(a_levels, ref_a)
                assert np.array_equal(b_levels, ref_b)

    @pytest.mark.parametrize("workers, pool_min_n, cpus", [
        (1, pipeline.POOL_MIN_N, 8),  # workers=1
        (2, 10_000, 8),               # n < POOL_MIN_N
        (4, 0, 1),                    # single usable core
    ])
    def test_inline_build_plans_one_task_per_system(
        self, monkeypatch, workers, pool_min_n, cpus
    ):
        # Every chunk sorts the system's lead columns again, so an
        # inline build that split systems would only lose time.
        monkeypatch.setattr(pipeline, "POOL_MIN_N", pool_min_n)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        pts = np.random.default_rng(6).random((60, 4))
        counters = appri_build(pts, workers=workers).metrics["counters"]
        assert counters["build.pool_used"] == 0
        assert counters["build.chunks"] == 1
        systems = pair_systems(4, include_partial=False)
        assert counters["build.tasks"] == 1 + len(systems)

    def test_metrics_record_tasks_and_chunks(self):
        pts = np.random.default_rng(3).random((40, 2))
        metrics = Metrics()
        pipeline.build_level_data(
            pts, 4, include_partial=False, workers=2, chunk_size=2,
            metrics=metrics,
        )
        assert metrics.counters["build.chunks"] == 2
        # 1 dom task + 2 level-range tasks for the single 2-D system.
        assert metrics.counters["build.tasks"] == 1 + 2
        assert "build.phase.levels" in metrics.timers
        assert "counting.kernel" in metrics.timers

    def test_pool_engages_when_forced(self, monkeypatch):
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        pts = np.random.default_rng(9).random((50, 3))
        metrics = Metrics()
        dominators, level_data, _ = pipeline.build_level_data(
            pts, 5, include_partial=False, workers=2, chunk_size=2,
            metrics=metrics,
        )
        assert metrics.counters["build.pool_used"] == 1
        serial_dom, serial_level, _ = pipeline.build_level_data(
            pts, 5, include_partial=False, workers=1
        )
        assert np.array_equal(dominators, serial_dom)
        for (pa, pb), (sa, sb) in zip(level_data, serial_level):
            assert np.array_equal(pa, sa)
            assert np.array_equal(pb, sb)

    def test_pool_bypassed_on_single_core(self, monkeypatch):
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        pts = np.random.default_rng(2).random((30, 2))
        metrics = Metrics()
        pipeline.build_level_data(
            pts, 3, include_partial=False, workers=4, metrics=metrics
        )
        assert metrics.counters["build.pool_used"] == 0


class TestBoundaryExactness:
    def test_tie_heavy_lattice_identical_to_serial(self):
        # Integer lattices put every gamma threshold exactly on a
        # constraint boundary — the worst case for any float shortcut;
        # the fused kernel compares the per-level passes' exact values.
        rng = np.random.default_rng(21)
        pts = rng.integers(0, 3, size=(70, 3)).astype(float)
        serial = appri_levels.appri_layers(pts, n_partitions=9)
        assert np.array_equal(appri_build(pts, n_partitions=9).layers, serial)
        chunked = appri_build(pts, n_partitions=9, workers=3).layers
        assert np.array_equal(serial, chunked)

    def test_boundary_lattice_matches_legacy_engine(self):
        # Duplicated coordinates put pairs exactly on wedge boundaries;
        # the fused kernel must agree with the per-level legacy passes.
        pts = np.array(
            [[float(i % 4), float((i * 3) % 4)] for i in range(24)]
        )
        fused = appri_build(pts, n_partitions=8).layers
        legacy = appri_levels.appri_layers(
            pts, n_partitions=8, method="blocked"
        )
        assert np.array_equal(fused, legacy)
        chunked = appri_build(pts, n_partitions=8, workers=2).layers
        assert np.array_equal(fused, chunked)
