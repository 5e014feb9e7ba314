"""Seeded synthetic signal datasets with an 80:20 train/validation split.

Each feature channel is an independent sum of random sinusoids (amplitude,
whole-cycle count and phase drawn from one seeded generator) rescaled so the
channel's largest magnitude is exactly 1. The generator, the shuffle and the
batching are all pure functions of their configuration and seeds. Batches
are [batch, seq_len, n_features] tensors, the layout every model takes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

__all__ = [
    "SignalConfig",
    "Dataset",
    "generate_dataset",
    "shuffle_split",
    "batches",
]


@dataclass(frozen=True)
class SignalConfig:
    n_sequences: int = 5000
    seq_len: int = 200
    n_features: int = 1
    components_per_feature: int = 3
    seed: int = 0

    def __post_init__(self):
        for field in ("n_sequences", "seq_len", "n_features", "components_per_feature"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1, got {getattr(self, field)}")


@dataclass
class Dataset:
    """Signal array [n_sequences, seq_len, n_features] plus split index lists."""

    sequences: np.ndarray
    train_indices: np.ndarray
    val_indices: np.ndarray

    @property
    def n_sequences(self) -> int:
        return self.sequences.shape[0]


def generate_dataset(cfg: SignalConfig) -> Dataset:
    """Draw the signal collection; deterministic in the config's seed.

    Per channel: components_per_feature sinusoids with amplitude ~ U(0.5, 1),
    an integer number of cycles ~ U{1..10} over the window and phase
    ~ U(0, 2*pi), summed and rescaled by the channel's own max magnitude.
    The split starts as the unshuffled first-80% assignment; use
    :func:`shuffle_split` for a randomized one.
    """
    rng = np.random.default_rng(cfg.seed)
    n, length, feats, comps = cfg.n_sequences, cfg.seq_len, cfg.n_features, cfg.components_per_feature
    amps = rng.uniform(0.5, 1.0, size=(n, feats, comps))
    cycles = rng.integers(1, 11, size=(n, feats, comps))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n, feats, comps))
    t = np.arange(length) / length
    signals = np.zeros((n, feats, length))
    for c in range(comps):
        signals += amps[:, :, c, None] * np.sin(
            2.0 * np.pi * cycles[:, :, c, None] * t + phases[:, :, c, None]
        )
    peak = np.abs(signals).max(axis=2, keepdims=True)
    signals /= np.where(peak > 0.0, peak, 1.0)
    sequences = np.ascontiguousarray(signals.transpose(0, 2, 1))
    idx = np.arange(n)
    return Dataset(sequences, idx[: n * 4 // 5], idx[n * 4 // 5 :])


def shuffle_split(dataset: Dataset, seed: int) -> Dataset:
    """Assign a fresh uniformly shuffled 80:20 split; the data is shared."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n_sequences)
    cut = dataset.n_sequences * 4 // 5
    return Dataset(dataset.sequences, perm[:cut], perm[cut:])


def batches(dataset: Dataset, which: str, batch_size: int) -> list[Tensor]:
    """Contiguous chunks of one split, in index order; the last may be partial."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if which == "train":
        idx = dataset.train_indices
    elif which == "val":
        idx = dataset.val_indices
    else:
        raise ValueError(f"which must be 'train' or 'val', got {which!r}")
    return [
        Tensor(dataset.sequences[idx[i : i + batch_size]])
        for i in range(0, len(idx), batch_size)
    ]

