"""Tests for layered-index primitives."""

import numpy as np
import pytest

from repro.core.index import (
    LayerSlab,
    cumulative_layer_sizes,
    is_sound_for_query,
    layer_offsets,
    layer_order,
    tuples_in_top_layers,
    violating_tids,
)
from repro.queries.ranking import LinearQuery


class TestOrderAndOffsets:
    def test_layer_order_sorts_by_layer_then_tid(self):
        layers = np.array([2, 1, 2, 1])
        assert layer_order(layers).tolist() == [1, 3, 0, 2]

    def test_offsets_cumulative(self):
        layers = np.array([1, 1, 2, 4])
        offsets = layer_offsets(layers)
        assert offsets.tolist() == [0, 2, 3, 3, 4]

    def test_cumulative_layer_sizes_clamps(self):
        layers = np.array([1, 2, 2])
        assert cumulative_layer_sizes(layers, 0) == 0
        assert cumulative_layer_sizes(layers, 1) == 1
        assert cumulative_layer_sizes(layers, 99) == 3

    def test_tuples_in_top_layers(self):
        layers = np.array([3, 1, 2])
        assert tuples_in_top_layers(layers, 2).tolist() == [1, 2]

    def test_empty_layers(self):
        assert layer_order(np.array([], dtype=int)).size == 0
        assert layer_offsets(np.array([], dtype=int)).tolist() == [0]

    def test_rejects_zero_based_layers(self):
        with pytest.raises(ValueError, match="1-based"):
            layer_offsets(np.array([0, 1]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            layer_order(np.ones((2, 2)))


class TestLayerSlab:
    def test_packs_matches_primitives_and_round_trips_memmaps(self, tmp_path):
        points = np.arange(12, dtype=float).reshape(6, 2)
        layers = np.array([3, 1, 3, 1, 2, 3])
        slab = LayerSlab.from_layers(points, layers)
        assert np.array_equal(slab.order, layer_order(layers))
        assert np.array_equal(slab.offsets, layer_offsets(layers))
        assert np.array_equal(slab.rows, points[layer_order(layers)])
        assert slab.rows.flags["C_CONTIGUOUS"]
        assert slab.n_layers == 3

        rows, tids, layers_scanned = slab.prefix(0)
        assert rows.shape == (0, 2) and tids.size == 0
        assert layers_scanned == 0
        rows, tids, layers_scanned = slab.prefix(2)
        assert tids.tolist() == [1, 3, 4] and layers_scanned == 2
        assert np.array_equal(rows, points[[1, 3, 4]])
        rows, tids, layers_scanned = slab.prefix(99)  # beyond the deepest
        assert tids.tolist() == [1, 3, 4, 0, 2, 5] and layers_scanned == 3
        assert slab.retrieval_cost(99) == 6

        mapped = {}
        for name, array in slab.arrays().items():
            path = tmp_path / f"{name}.bin"
            array.tofile(path)
            mapped[name] = np.memmap(
                path, dtype=array.dtype, mode="r", shape=array.shape
            )
        restored = LayerSlab.from_arrays(mapped)
        assert all(
            isinstance(a, np.memmap) for a in restored.arrays().values()
        )
        assert np.array_equal(restored.prefix(2)[1], tids[:3])


class TestSoundnessCheck:
    def test_detects_violation(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        bad_layers = np.array([2, 1])  # the dominator is buried
        q = LinearQuery([1, 1])
        assert violating_tids(pts, bad_layers, q, 1).tolist() == [0]
        assert not is_sound_for_query(pts, bad_layers, q, 1)

    def test_accepts_valid_layering(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        q = LinearQuery([1, 1])
        assert is_sound_for_query(pts, np.array([1, 2]), q, 1)
        assert is_sound_for_query(pts, np.array([1, 2]), q, 2)

    def test_trivial_layering_always_sound(self):
        rng = np.random.default_rng(0)
        pts = rng.random((20, 3))
        ones = np.ones(20, dtype=int)
        for seed in range(5):
            w = np.random.default_rng(seed).dirichlet(np.ones(3))
            assert is_sound_for_query(pts, ones, LinearQuery(w), 7)
