"""Tests for the AppRI builder: the paper's central guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.appri import (
    _wedges_from_levels,
    appri_build,
    appri_layers,
    pair_eds2_bound,
)
from repro.core.exact import exact_robust_layers
from repro.core.index import violating_tids
from repro.core.pipeline import build_level_data
from repro.dstruct.dominance import count_dominators
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery

from ..conftest import points_strategy
from ..reference import appri_levels


class TestValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            appri_layers(np.ones(4))

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            appri_layers(np.ones((3, 2)), n_partitions=0)

    def test_rejects_bad_matching(self):
        with pytest.raises(ValueError, match="matching"):
            appri_layers(np.ones((3, 2)), matching="magic")

    def test_rejects_bad_systems(self):
        with pytest.raises(ValueError, match="systems"):
            appri_layers(np.ones((3, 2)), systems="everything")

    def test_rejects_bad_refine(self):
        with pytest.raises(ValueError, match="refine"):
            appri_layers(np.ones((3, 2)), refine="magic")

    def test_rejects_nan_attributes(self):
        pts = np.ones((3, 2))
        pts[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            appri_layers(pts)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_attributes(self, bad):
        pts = np.ones((4, 3))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            appri_layers(pts)

    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            appri_layers(np.ones((3, 2)), workers=workers)

    @pytest.mark.parametrize("chunk_size", [0, -4, 2.5])
    def test_rejects_bad_chunk_size(self, chunk_size):
        # The level pipeline is the one builder that still takes it.
        with pytest.raises(ValueError, match="chunk_size"):
            build_level_data(
                np.ones((3, 2)), 4, include_partial=False, workers=2,
                chunk_size=chunk_size,
            )

    @pytest.mark.parametrize("option", ["counting", "chunk_size"])
    @pytest.mark.parametrize(
        "builder", [appri_layers, appri_build, RobustIndex]
    )
    def test_retired_options_are_not_accepted(self, builder, option):
        with pytest.raises(TypeError, match=option):
            builder(np.ones((3, 2)), **{option: None})

    def test_rejects_non_integer_partitions(self):
        with pytest.raises(ValueError, match="n_partitions"):
            appri_layers(np.ones((3, 2)), n_partitions=2.5)

    def test_empty_relation(self):
        assert appri_layers(np.zeros((0, 3))).size == 0
        assert appri_layers(np.zeros((0, 3)), workers=4).size == 0


class TestBuildResult:
    def test_appri_build_returns_layers_and_metrics(self):
        pts = np.random.default_rng(0).random((40, 3))
        build = appri_build(pts, n_partitions=5, workers=2)
        assert np.array_equal(build.layers, appri_layers(pts, n_partitions=5))
        assert build.workers == 2
        assert build.metrics["counters"]["build.n"] == 40
        assert "build.total" in build.metrics["timers"]
        assert "build.phase.levels" in build.metrics["timers"]

    def test_serial_build_records_phases(self):
        pts = np.random.default_rng(1).random((30, 2))
        build = appri_build(pts, n_partitions=4)
        timers = build.metrics["timers"]
        for phase in ("build.total", "build.phase.dominators",
                      "build.phase.levels", "build.phase.matching",
                      "build.phase.aggregate"):
            assert phase in timers
        assert build.metrics["counters"]["df.passes"] > 0


class TestSmallCases:
    def test_one_dimension_is_exact(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        assert appri_layers(pts).tolist() == [3, 1, 2]

    def test_single_tuple(self):
        assert appri_layers(np.array([[0.5, 0.5]])).tolist() == [1]

    def test_dominated_chain(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
        layers = appri_layers(pts, n_partitions=4)
        assert layers.tolist() == [1, 2, 3]

    def test_skyline_pairs_layer_one_unless_convexly_dominated(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert appri_layers(pts, n_partitions=4).tolist() == [1, 1]

    def test_convexly_dominated_point_pushed_down(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.9, 0.9]])
        layers = appri_layers(pts, n_partitions=6)
        assert layers[2] >= 2  # the pair (0, 1) dominates it convexly
        assert layers[0] == layers[1] == 1


class TestLowerBoundProperty:
    """AppRI never exceeds the exact robust layer (minimal rank)."""

    @given(points_strategy(min_rows=2, max_rows=30, min_dims=2, max_dims=2),
           st.sampled_from([2, 5, 10]))
    @settings(max_examples=20, deadline=None)
    def test_2d_lower_bound(self, pts, b):
        exact = exact_robust_layers(pts)
        for systems in ("complementary", "families"):
            approx = appri_layers(pts, n_partitions=b, systems=systems)
            assert np.all(approx <= exact)

    @given(points_strategy(min_rows=2, max_rows=20, min_dims=3, max_dims=3),
           st.sampled_from([3, 8]))
    @settings(max_examples=10, deadline=None)
    def test_3d_lower_bound(self, pts, b):
        exact = exact_robust_layers(pts)
        approx = appri_layers(pts, n_partitions=b, systems="families",
                              refine="peel")
        assert np.all(approx <= exact)

    def test_families_at_least_as_tight(self, small_3d):
        base = appri_layers(small_3d, n_partitions=6)
        fam = appri_layers(small_3d, n_partitions=6, systems="families")
        assert np.all(fam >= base)

    def test_peel_refinement_only_tightens(self, small_3d):
        base = appri_layers(small_3d, n_partitions=6)
        refined = appri_layers(small_3d, n_partitions=6, refine="peel")
        assert np.all(refined >= base)

    def test_layer_exceeds_dominance_factor(self, small_3d):
        layers = appri_layers(small_3d, n_partitions=6)
        dominators = count_dominators(small_3d)
        assert np.all(layers >= dominators + 1)


class TestSoundness:
    """Definition 1: any top-k query answered by the first k layers."""

    @given(points_strategy(min_rows=2, max_rows=40, min_dims=2, max_dims=4),
           st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_random_queries_random_data(self, pts, seed):
        rng = np.random.default_rng(seed)
        layers = appri_layers(pts, n_partitions=int(rng.integers(2, 9)))
        for _ in range(5):
            w = rng.dirichlet(np.ones(pts.shape[1]))
            q = LinearQuery(w)
            k = int(rng.integers(1, pts.shape[0] + 1))
            assert violating_tids(pts, layers, q, k).size == 0

    @given(points_strategy(min_rows=3, max_rows=30, min_dims=3, max_dims=3),
           st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_extension_modes_stay_sound(self, pts, seed):
        rng = np.random.default_rng(seed)
        layers = appri_layers(pts, n_partitions=4, systems="families",
                              refine="peel")
        for _ in range(5):
            w = rng.dirichlet(np.ones(3))
            k = int(rng.integers(1, pts.shape[0] + 1))
            assert violating_tids(pts, layers, LinearQuery(w), k).size == 0

    def test_corner_queries(self, small_3d):
        layers = appri_layers(small_3d, n_partitions=5)
        for j in range(3):
            w = np.zeros(3)
            w[j] = 1.0
            assert violating_tids(small_3d, layers, LinearQuery(w), 7).size == 0

    def test_sound_with_duplicate_rows(self):
        rng = np.random.default_rng(2)
        base = rng.random((20, 3))
        pts = np.vstack([base, base[:5]])  # duplicated tuples
        layers = appri_layers(pts, n_partitions=4)
        for seed in range(5):
            w = np.random.default_rng(seed).dirichlet(np.ones(3))
            assert violating_tids(pts, layers, LinearQuery(w), 6).size == 0

    def test_sound_with_tied_columns(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 4, size=(30, 3)).astype(float)  # heavy ties
        layers = appri_layers(pts, n_partitions=4)
        for seed in range(5):
            w = np.random.default_rng(seed).dirichlet(np.ones(3))
            assert violating_tids(pts, layers, LinearQuery(w), 8).size == 0


class TestMatchingModes:
    def test_greedy_equals_lemma3_end_to_end(self, small_3d):
        a = appri_layers(small_3d, n_partitions=7, matching="greedy")
        b = appri_layers(small_3d, n_partitions=7, matching="lemma3")
        assert a.tolist() == b.tolist()

    def test_counting_engines_agree(self, small_3d):
        built = appri_layers(small_3d, n_partitions=4)
        for method in ("blocked", "naive"):
            reference = appri_levels.appri_layers(
                small_3d, n_partitions=4, method=method
            )
            assert built.tolist() == reference.tolist(), method


def built_wedges(pts, b):
    """``(pair, |I_i|, |III_i|)`` per system, as the builder sees them."""
    _, level_data, systems = build_level_data(
        pts, b, include_partial=True, workers=1
    )
    for pair, (a_levels, b_levels) in zip(systems, level_data):
        yield (pair, *_wedges_from_levels(a_levels, b_levels))


class TestWedgeCounts:
    def test_wedges_partition_subspaces(self, small_3d):
        from repro.core.partitioning import subspace_transform

        for pair, i_wedges, iii_wedges in built_wedges(small_3d, 5):
            ref_i, ref_iii = appri_levels.wedge_counts(small_3d, pair, 5)
            assert np.array_equal(i_wedges, ref_i)
            assert np.array_equal(iii_wedges, ref_iii)
            y_a = subspace_transform(small_3d, pair, "a")
            y_b = subspace_transform(small_3d, pair, "b")
            full_a = count_dominators(y_a)
            full_b = count_dominators(y_b)
            assert i_wedges.sum(axis=1).tolist() == full_a.tolist()
            assert iii_wedges.sum(axis=1).tolist() == full_b.tolist()

    def test_wedges_non_negative(self, small_3d):
        for _, i_wedges, iii_wedges in list(built_wedges(small_3d, 6))[:2]:
            assert i_wedges.min() >= 0
            assert iii_wedges.min() >= 0

    def test_eds2_bound_zero_when_one_side_empty(self):
        i_wedges = np.array([[3, 2, 1]])
        iii_wedges = np.array([[0, 0, 0]])
        assert pair_eds2_bound(i_wedges, iii_wedges).tolist() == [0]
