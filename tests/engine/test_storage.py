"""Tests for paged sequential storage and access accounting."""

import numpy as np
import pytest

from repro.engine.relation import Relation
from repro.engine.schema import Attribute
from repro.engine.stats import AccessStats
from repro.engine.storage import BlockStore


@pytest.fixture
def relation():
    data = np.arange(20, dtype=float).reshape(10, 2)
    return Relation.from_matrix("t", ["a", "b"], data)


class TestAccessStats:
    def test_reset_and_merge(self):
        a = AccessStats(tuples_read=5, blocks_read=2, scans_started=1)
        b = AccessStats(tuples_read=3, blocks_read=1, scans_started=1)
        a.merge(b)
        assert (a.tuples_read, a.blocks_read, a.scans_started) == (8, 3, 2)
        snap = a.snapshot()
        a.reset()
        assert a.tuples_read == 0
        assert snap.tuples_read == 8


class TestBlockStore:
    def test_default_order_scan(self, relation):
        store = BlockStore(relation, block_size=4)
        tids = list(store.scan())
        assert tids == list(range(10))
        assert store.stats.tuples_read == 10
        assert store.stats.blocks_read == 3  # ceil(10 / 4)
        assert store.stats.scans_started == 1

    def test_limited_scan_charges_partial_block(self, relation):
        store = BlockStore(relation, block_size=4)
        tids = store.read_prefix(5)
        assert tids.tolist() == [0, 1, 2, 3, 4]
        assert store.stats.blocks_read == 2

    @pytest.mark.parametrize("n", [-2, 0, 1, 3, 4, 5, 9, 10, 25])
    @pytest.mark.parametrize("block_size", [1, 4, 64])
    def test_read_prefix_charges_like_a_limited_scan(
        self, relation, n, block_size
    ):
        order = np.random.default_rng(n + 2).permutation(10)
        read = BlockStore(relation, storage_order=order, block_size=block_size)
        scanned = BlockStore(relation, storage_order=order, block_size=block_size)
        for _ in range(2):  # stats accumulate across reads
            tids = read.read_prefix(n)
            assert tids.tolist() == list(scanned.scan(limit=n))
        assert read.stats == scanned.stats

    def test_prefix_length_binary_searches_a_sorted_column(self, relation):
        layers = np.array([3, 1, 2, 1, 3, 2, 1, 4, 4, 2])
        layered = relation.with_column(Attribute("layer", "int"), layers)
        store = BlockStore(layered, storage_order=np.argsort(layers, kind="stable"))
        for bound in range(-1, 6):
            assert store.prefix_length("layer", bound) == np.count_nonzero(
                layers <= bound
            )

    def test_custom_storage_order(self, relation):
        order = np.arange(10)[::-1]
        store = BlockStore(relation, storage_order=order, block_size=3)
        assert store.read_prefix(3).tolist() == [9, 8, 7]
        assert store.position_of(9) == 0
        assert store.position_of(0) == 9

    def test_rejects_non_permutation(self, relation):
        with pytest.raises(ValueError, match="permutation"):
            BlockStore(relation, storage_order=np.zeros(10, dtype=int))

    def test_rejects_bad_block_size(self, relation):
        with pytest.raises(ValueError):
            BlockStore(relation, block_size=0)

    def test_blocks_for_prefix(self, relation):
        store = BlockStore(relation, block_size=4)
        assert store.blocks_for_prefix(0) == 0
        assert store.blocks_for_prefix(1) == 1
        assert store.blocks_for_prefix(4) == 1
        assert store.blocks_for_prefix(5) == 2
        assert store.blocks_for_prefix(99) == 3

    def test_n_blocks(self, relation):
        assert BlockStore(relation, block_size=4).n_blocks == 3
        assert BlockStore(relation, block_size=64).n_blocks == 1
