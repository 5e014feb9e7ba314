"""Context bookkeeping and the context-decoding strategies.

All four variants share the same encoder (a GRU whose final hidden state is
the context vector), the same GRU decoder and the same time-distributed dense
head; they differ only in how the flat context becomes the decoder's input
sequence. Models take [batch, seq_len, n_features] inputs and carry
[batch, context_size] contexts; one sequence is a batch of one.

* ``rae``: the context vector is repeated at every decoder step.
* ``raes``: the context is reshaped into seq_len steps of equal feature
  chunks, which requires the context size to be a multiple of seq_len.
* ``raesc``: a 1D convolution (one filter per output step) plus max-pooling
  runs over the context, and the result is transposed so each filter's
  response becomes one decoder step; no divisibility constraint.
* ``raes-stretch``: the context is linearly interpolated up to seq_len
  univariate steps (only defined when the context is not longer than the
  sequence).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .layers import (
    Conv1DLayer,
    DenseLayer,
    GRULayer,
    MaxPool1D,
    conv1d_forward,
    gru_forward,
    maxpool1d_forward,
    time_distributed_dense,
)
from .tensor import (
    ShapeError,
    Tensor,
    matmul,
    reshape,
    swap_last_axes,
    take_step,
    unstack_steps,
)

__all__ = [
    "RAE",
    "RAES",
    "RAESC",
    "RAES_STRETCH",
    "VARIANT_KINDS",
    "ModelVariant",
    "ContextSpec",
    "AutoencoderModel",
    "context_size_from_sigma",
    "raes_feasible",
    "transform_context",
    "stretch_context",
    "decoder_input_features",
    "infeasibility_reason",
]

RAE = "rae"
RAES = "raes"
RAESC = "raesc"
RAES_STRETCH = "raes-stretch"
VARIANT_KINDS = (RAE, RAES, RAESC, RAES_STRETCH)


@dataclass(frozen=True)
class ModelVariant:
    """A decoding strategy plus the convolution hyperparameters it may need."""

    kind: str
    kernel_size: int = 3
    pool_size: int = 2
    pool_stride: int | None = None  # None: the pool size, so windows do not overlap

    def __post_init__(self):
        if self.pool_stride is None:
            object.__setattr__(self, "pool_stride", self.pool_size)
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant {self.kind!r}, expected one of {VARIANT_KINDS}")
        for name in ("kernel_size", "pool_size", "pool_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def context_size_from_sigma(sigma: float, n_features: int, seq_len: int) -> int:
    """Context length for a given size ratio: round(sigma * n_features * seq_len)."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be a finite number > 0, got {sigma}")
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    n = int(round(sigma * n_features * seq_len))
    if n < 1:
        raise ValueError(f"sigma {sigma} with {n_features} features over {seq_len} steps gives an empty context")
    return n


def raes_feasible(context_size: int, seq_len: int) -> int | None:
    """Per-step feature count when the context divides evenly, else None."""
    if context_size < 1 or seq_len < 1:
        raise ValueError(f"context_size and seq_len must be >= 1, got ({context_size}, {seq_len})")
    if context_size % seq_len != 0:
        return None
    return context_size // seq_len


@dataclass(frozen=True)
class ContextSpec:
    """Sizes shared by every variant: sequence geometry and the context ratio.

    The decoder reconstructs the input, so it emits seq_len steps of
    n_features each.
    """

    seq_len: int
    n_features: int
    sigma: float

    def __post_init__(self):
        # validates all three fields and rejects an empty context
        context_size_from_sigma(self.sigma, self.n_features, self.seq_len)

    @classmethod
    def autoencoding(cls, seq_len: int, n_features: int, sigma: float) -> "ContextSpec":
        """Spec for reconstruction runs, where the output mirrors the input."""
        return cls(seq_len=seq_len, n_features=n_features, sigma=sigma)

    @property
    def context_size(self) -> int:
        """Context length: round(sigma * n_features * seq_len)."""
        return context_size_from_sigma(self.sigma, self.n_features, self.seq_len)


def transform_context(context: Tensor, seq_len: int) -> Tensor:
    """Reinterpret a [B, context_size] context as seq_len steps of contiguous feature chunks.

    out[b, i, j] = context[b, i * lam + j] with lam = context_size / seq_len;
    a pure reshape, so it is a bijection and differentiable.
    """
    if context.ndim != 2:
        raise ShapeError(f"transform_context needs a [batch, context_size] context, got {context.shape}")
    batch, n = context.shape
    lam = raes_feasible(n, seq_len)
    if lam is None:
        raise ShapeError(
            f"context size {n} is not a multiple of sequence length {seq_len}; "
            "the sequence reinterpretation needs an integer per-step feature count"
        )
    return reshape(context, (batch, seq_len, lam))


@lru_cache(maxsize=None)
def _stretch_matrix(context_size: int, seq_len: int) -> np.ndarray:
    """[context_size, seq_len] interpolation weights, endpoints preserved."""
    m = np.zeros((context_size, seq_len))
    if context_size == 1:
        m[0, :] = 1.0
        return m
    for t in range(seq_len):
        pos = t * (context_size - 1) / (seq_len - 1) if seq_len > 1 else 0.0
        lo = int(np.floor(pos))
        frac = pos - lo
        m[lo, t] += 1.0 - frac
        if frac > 0.0:
            m[lo + 1, t] += frac
    return m


def stretch_context(context: Tensor, seq_len: int) -> Tensor:
    """Upsample a short [B, context_size] context to seq_len univariate steps by linear interpolation.

    Endpoints are preserved and interior gaps are filled with the linear
    average of their neighbours.
    """
    if context.ndim != 2:
        raise ShapeError(f"stretch_context needs a [batch, context_size] context, got {context.shape}")
    batch, n = context.shape
    if n > seq_len:
        raise ShapeError(f"stretch only upsamples: context size {n} exceeds target length {seq_len}")
    out = matmul(context, Tensor(_stretch_matrix(n, seq_len)))
    return reshape(out, (batch, seq_len, 1))


def decoder_input_features(variant: ModelVariant, context: ContextSpec) -> int:
    """Per-step decoder input size for a variant, or raise if it cannot apply."""
    if variant.kind == RAE:
        return context.context_size
    if variant.kind == RAES:
        lam = raes_feasible(context.context_size, context.seq_len)
        if lam is None:
            raise ValueError(
                f"context size {context.context_size} is not a multiple of "
                f"sequence length {context.seq_len}"
            )
        return lam
    if variant.kind == RAESC:
        minimum = variant.kernel_size + variant.pool_size - 1
        if context.context_size < minimum:
            raise ValueError(
                f"context size {context.context_size} too small for kernel "
                f"{variant.kernel_size} and pool {variant.pool_size}; needs at least {minimum}"
            )
        # features per step: the pooled length of the convolved context
        conv_len = context.context_size - variant.kernel_size + 1
        return (conv_len - variant.pool_size) // variant.pool_stride + 1
    # RAES_STRETCH, the last kind ModelVariant admits
    if context.context_size > context.seq_len:
        raise ValueError(
            f"stretch only upsamples: context size {context.context_size} exceeds "
            f"sequence length {context.seq_len}"
        )
    return 1


def infeasibility_reason(variant: ModelVariant, context: ContextSpec) -> str | None:
    """Human-readable reason a variant cannot run on this context, or None."""
    try:
        decoder_input_features(variant, context)
    except ValueError as exc:
        return str(exc)
    return None


@dataclass
class AutoencoderModel:
    """Encoder, context transform, decoder and output head for one variant."""

    variant: ModelVariant
    context: ContextSpec
    encoder: GRULayer
    decoder: GRULayer
    head: DenseLayer
    conv: Conv1DLayer | None = None
    pool: MaxPool1D | None = None

    @classmethod
    def build(
        cls,
        variant: ModelVariant,
        context: ContextSpec,
        rng: np.random.Generator,
        decoder_hidden: int | None = None,
    ) -> "AutoencoderModel":
        """Construct fresh layers; parameters are drawn in a fixed order.

        The encoder hidden size equals the context size (the context is the
        final hidden state); the decoder hidden size defaults to the context
        size so parameter counts stay comparable across variants.
        """
        feat = decoder_input_features(variant, context)
        hidden = context.context_size if decoder_hidden is None else decoder_hidden
        encoder = GRULayer(context.n_features, context.context_size, rng)
        conv = pool = None
        if variant.kind == RAESC:
            conv = Conv1DLayer(1, context.seq_len, variant.kernel_size, rng)
            pool = MaxPool1D(variant.pool_size, variant.pool_stride)
        decoder = GRULayer(feat, hidden, rng)
        head = DenseLayer(hidden, context.n_features, rng)
        model = cls(variant, context, encoder, decoder, head, conv, pool)
        for prefix, layer in model._named_layers():
            for p in layer.parameters():
                p.name = f"{prefix}.{p.name}"
        return model

    def _named_layers(self):
        layers = [("encoder", self.encoder), ("decoder", self.decoder), ("head", self.head)]
        if self.conv is not None:
            layers.insert(1, ("conv", self.conv))
        return layers

    def parameters(self) -> list[Tensor]:
        out = []
        for _, layer in self._named_layers():
            out.extend(layer.parameters())
        return out

    def forward(self, x: Tensor) -> Tensor:
        """Encode, turn the context into decoder input steps, decode."""
        return decode_steps(self, decoder_input_steps(self, encode_context(self, x)))


def encode_context(model: AutoencoderModel, x: Tensor) -> Tensor:
    """Run the encoder over a [B, seq_len, n_features] batch; the context is its final hidden state."""
    if x.ndim != 3 or x.shape[1:] != (model.context.seq_len, model.context.n_features):
        raise ShapeError(
            f"input {x.shape} does not match [batch, seq_len={model.context.seq_len}, "
            f"n_features={model.context.n_features}]"
        )
    h0 = Tensor(np.zeros((x.shape[0], model.encoder.hidden_size)))
    return take_step(gru_forward(model.encoder, unstack_steps(x), h0), -1)


def decode_steps(model: AutoencoderModel, steps) -> Tensor:
    """Run the decoder from a zero state and apply the head at every step."""
    h0 = Tensor(np.zeros((steps[0].shape[0], model.decoder.hidden_size)))
    return time_distributed_dense(model.head, gru_forward(model.decoder, steps, h0))


def decoder_input_steps(model: AutoencoderModel, context: Tensor) -> list[Tensor]:
    """Turn the flat context into the decoder's input sequence for this variant."""
    kind = model.variant.kind
    spec = model.context
    if kind == RAE:
        return [context] * spec.seq_len
    if kind == RAES:
        return unstack_steps(transform_context(context, spec.seq_len))
    if kind == RAESC:
        seq = reshape(context, (context.shape[0], spec.context_size, 1))
        responses = conv1d_forward(model.conv, seq)
        pooled = maxpool1d_forward(model.pool, responses)
        return unstack_steps(swap_last_axes(pooled))
    # RAES_STRETCH, the last kind ModelVariant admits
    return unstack_steps(stretch_context(context, spec.seq_len))

