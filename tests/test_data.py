"""Synthetic signal generation, splitting and batching."""

import numpy as np
import pytest

from raeslab.data import (
    Dataset,
    SignalConfig,
    batches,
    generate_dataset,
    shuffle_split,
)


def small_cfg(**kw):
    base = dict(n_sequences=20, seq_len=16, n_features=2, seed=123)
    base.update(kw)
    return SignalConfig(**base)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = generate_dataset(small_cfg())
        b = generate_dataset(small_cfg())
        assert np.array_equal(a.sequences, b.sequences)
        assert a.sequences.tobytes() == b.sequences.tobytes()

    def test_different_seed_differs(self):
        a = generate_dataset(small_cfg(seed=1))
        b = generate_dataset(small_cfg(seed=2))
        assert not np.array_equal(a.sequences, b.sequences)

    def test_shape_and_bounds(self):
        ds = generate_dataset(SignalConfig(n_sequences=50, seq_len=40, n_features=4, seed=7))
        assert ds.sequences.shape == (50, 40, 4)
        assert np.all(np.isfinite(ds.sequences))
        assert np.all(np.abs(ds.sequences) <= 1.0)

    def test_channel_peak_exactly_one(self):
        ds = generate_dataset(small_cfg())
        peaks = np.abs(ds.sequences).max(axis=1)
        assert np.all(peaks == 1.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SignalConfig(n_sequences=0)
        with pytest.raises(ValueError):
            SignalConfig(seq_len=0)


class TestSplit:
    def test_paper_scale_counts(self):
        ds = Dataset(np.zeros((5000, 1, 1)), np.arange(0), np.arange(0))
        out = shuffle_split(ds, seed=0)
        assert len(out.train_indices) == 4000
        assert len(out.val_indices) == 1000

    def test_tiny_floor(self):
        ds = Dataset(np.zeros((5, 1, 1)), np.arange(0), np.arange(0))
        out = shuffle_split(ds, seed=0)
        assert len(out.train_indices) == 4
        assert len(out.val_indices) == 1

    def test_partition_property(self):
        for n in (5, 23, 100):
            ds = Dataset(np.zeros((n, 1, 1)), np.arange(0), np.arange(0))
            out = shuffle_split(ds, seed=3)
            union = np.concatenate([out.train_indices, out.val_indices])
            assert sorted(union.tolist()) == list(range(n))

    def test_deterministic_in_seed(self):
        ds = generate_dataset(small_cfg())
        a = shuffle_split(ds, seed=9)
        b = shuffle_split(ds, seed=9)
        assert np.array_equal(a.train_indices, b.train_indices)
        c = shuffle_split(ds, seed=10)
        assert not np.array_equal(a.train_indices, c.train_indices)


class TestBatches:
    def test_paper_scale_full_batches(self):
        ds = Dataset(np.zeros((5000, 2, 1)), np.arange(4000), np.arange(4000, 5000))
        out = batches(ds, "train", 100)
        assert len(out) == 40
        assert all(b.shape == (100, 2, 1) for b in out)

    def test_remainder_handling(self):
        ds = Dataset(np.zeros((10, 2, 1)), np.arange(10), np.arange(0))
        sizes = [b.shape[0] for b in batches(ds, "train", 3)]
        assert sizes == [3, 3, 3, 1]

    def test_batch_size_one(self):
        ds = Dataset(np.zeros((7, 2, 1)), np.arange(5), np.arange(5, 7))
        assert len(batches(ds, "train", 1)) == 5
        assert len(batches(ds, "val", 1)) == 2

    def test_total_coverage(self):
        ds = generate_dataset(small_cfg())
        ds = shuffle_split(ds, seed=4)
        out = batches(ds, "train", 6)
        assert sum(b.shape[0] for b in out) == len(ds.train_indices)

    def test_follows_shuffled_order(self):
        ds = shuffle_split(generate_dataset(small_cfg()), seed=5)
        out = batches(ds, "val", 2)
        stacked = np.concatenate([b.data for b in out])
        assert np.array_equal(stacked, ds.sequences[ds.val_indices])

    def test_invalid_arguments(self):
        ds = generate_dataset(small_cfg())
        with pytest.raises(ValueError):
            batches(ds, "train", 0)
        with pytest.raises(ValueError):
            batches(ds, "test", 1)
