"""Differentiable layers: GRU, dense output head, 1D convolution and pooling.

Every layer takes batches: sequences are [batch, length, channels], GRU
steps [batch, input] and states [batch, hidden]; one sequence is a batch of
one. The GRU unrolls a whole list of steps as one tape record and returns
the states as one [B, T, hidden] tensor; the dense head is one ``linear``
over that tensor. Weights are float64 tensors initialized Glorot-uniform;
biases start at zero.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _logistic, _record, accumulate_grad, active_tape, linear, record_op

__all__ = [
    "init_params",
    "GRULayer",
    "DenseLayer",
    "Conv1DLayer",
    "MaxPool1D",
    "gru_forward",
    "conv1d_forward",
    "maxpool1d_forward",
    "time_distributed_dense",
]


def init_params(shape, rng: np.random.Generator, name: str | None = None) -> Tensor:
    """Glorot-uniform weight tensor; 1-D shapes are biases and start at zero.

    Fan sizes: [out, in] weights use (in, out); [filters, kernel, in_channels]
    convolution kernels use the receptive-field convention
    (in_channels * kernel, filters * kernel).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 1:
        return Tensor(np.zeros(shape), requires_grad=True, name=name)
    if len(shape) == 2:
        fan_out, fan_in = shape
    elif len(shape) == 3:
        filters, kernel, in_ch = shape
        fan_in = in_ch * kernel
        fan_out = filters * kernel
    else:
        raise ShapeError(f"init_params supports 1-D to 3-D shapes, got {shape}")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape), requires_grad=True, name=name)


class GRULayer:
    """Single gated recurrent cell.

    Gates: z = sig(W_z x + U_z h + b_z), r = sig(W_r x + U_r h + b_r),
    candidate h~ = tanh(W_h x + U_h (r*h) + b_h), and the new state is the
    convex combination h' = (1 - z)*h + z*h~.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size < 1 or hidden_size < 1:
            raise ValueError(f"GRULayer sizes must be >= 1, got ({input_size}, {hidden_size})")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h, i = hidden_size, input_size
        self.W_z = init_params((h, i), rng, "W_z")
        self.U_z = init_params((h, h), rng, "U_z")
        self.b_z = init_params((h,), rng, "b_z")
        self.W_r = init_params((h, i), rng, "W_r")
        self.U_r = init_params((h, h), rng, "U_r")
        self.b_r = init_params((h,), rng, "b_r")
        self.W_h = init_params((h, i), rng, "W_h")
        self.U_h = init_params((h, h), rng, "U_h")
        self.b_h = init_params((h,), rng, "b_h")

    def parameters(self) -> list[Tensor]:
        return [
            self.W_z, self.U_z, self.b_z,
            self.W_r, self.U_r, self.b_r,
            self.W_h, self.U_h, self.b_h,
        ]


class DenseLayer:
    """Affine layer with weights [out_features, in_features]."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        if in_features < 1 or out_features < 1:
            raise ValueError(f"DenseLayer sizes must be >= 1, got ({in_features}, {out_features})")
        self.in_features = in_features
        self.out_features = out_features
        self.W = init_params((out_features, in_features), rng, "W")
        self.b = init_params((out_features,), rng, "b")

    def parameters(self) -> list[Tensor]:
        return [self.W, self.b]


class Conv1DLayer:
    """Valid (no padding) 1D cross-correlation with per-filter bias.

    Weights are stored [filters, kernel_size, in_channels].
    """

    def __init__(self, in_channels: int, filters: int, kernel_size: int, rng: np.random.Generator):
        if kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {kernel_size}")
        if filters < 1:
            raise ValueError(f"filters must be >= 1, got {filters}")
        if in_channels < 1:
            raise ValueError(f"in_channels must be >= 1, got {in_channels}")
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size
        self.w = init_params((filters, kernel_size, in_channels), rng, "w")
        self.b = init_params((filters,), rng, "b")

    def parameters(self) -> list[Tensor]:
        return [self.w, self.b]


class MaxPool1D:
    """Windowed maximum along the sequence axis; parameter-free."""

    def __init__(self, pool_size: int = 2, stride: int = 2):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.pool_size = pool_size
        self.stride = stride


def gru_forward(layer: GRULayer, xs, h0: Tensor) -> Tensor:
    """Unroll the cell over a list of [B, input] steps as one tape record.

    h0 is [B, hidden] and the states come back as one [B, T, hidden] tensor.
    z, r and the candidate are kept per step only while a tape is open, and
    the backward frees each step's as soon as that step has replayed.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("gru_forward needs at least one input step")
    if h0.ndim != 2 or h0.shape[1] != layer.hidden_size:
        raise ShapeError(f"gru_forward state {h0.shape} is not [batch, hidden_size={layer.hidden_size}]")
    step_shape = (h0.shape[0], layer.input_size)
    if any(x.shape != step_shape for x in xs):
        raise ShapeError(f"gru_forward steps must all be [batch, input_size] {step_shape} for state {h0.shape}")
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = params = layer.parameters()
    h2 = h0.data
    states = np.empty((h2.shape[0], len(xs), layer.hidden_size))
    saved = [] if active_tape() is not None else None
    for t, x2 in enumerate(x.data for x in xs):
        z = _logistic(x2 @ W_z.data.T + h2 @ U_z.data.T + b_z.data)
        r = _logistic(x2 @ W_r.data.T + h2 @ U_r.data.T + b_r.data)
        cand = np.tanh(x2 @ W_h.data.T + (r * h2) @ U_h.data.T + b_h.data)
        h2 = (1.0 - z) * h2 + z * cand
        states[:, t] = h2
        if saved is not None:
            saved.append((z, r, cand))

    def back(g, xs=xs, h0=h0, states=states, saved=saved):
        # Per step, the expressions and the order in which terms are added
        # into x, the previous state and each parameter are those of the
        # per-gate composition (the oracle in tests/test_layers.py) replayed
        # in reverse, so every gradient rounds identically to it. A state's
        # gradient is its head gradient plus the next step's four terms.
        dh = g[:, -1].copy()
        for t in range(len(xs) - 1, -1, -1):
            x, (z, r, cand) = xs[t], saved[t]
            saved[t] = None
            # a contiguous copy: the strided view slows the GEMMs and products below
            h2 = states[:, t - 1].copy() if t else h0.data
            g_c = dh * z * (1.0 - cand * cand)
            g_rh = g_c @ U_h.data
            g_r = g_rh * h2 * r * (1.0 - r)
            g_z = dh * (cand - h2) * z * (1.0 - z)
            if t or h0.requires_grad:
                terms = (dh * (1.0 - z), g_rh * r, g_r @ U_r.data, g_z @ U_z.data)
                if t:
                    dh = g[:, t - 1].copy()
                    for term in terms:
                        dh += term
                else:
                    for term in terms:
                        accumulate_grad(h0, term)
            if x.requires_grad:
                for term in (g_c @ W_h.data, g_r @ W_r.data, g_z @ W_z.data):
                    accumulate_grad(x, term)
            # recomputed, not saved: the tape keeps only z, r and cand per step
            rh = r * h2
            for gate, w, u, b, state in ((g_z, W_z, U_z, b_z, h2), (g_r, W_r, U_r, b_r, h2), (g_c, W_h, U_h, b_h, rh)):
                if w.requires_grad:
                    accumulate_grad(w, gate.T @ x.data)
                if u.requires_grad:
                    accumulate_grad(u, gate.T @ state)
                if b.requires_grad:
                    accumulate_grad(b, gate.sum(axis=0))

    return record_op("gru_forward", states, (*xs, h0, *params), back)


def conv1d_forward(layer: Conv1DLayer, seq: Tensor) -> Tensor:
    """Valid cross-correlation: out[n, i, f] = b[f] + sum_k sum_l seq[n, i+k, l] w[f, k, l]."""
    if seq.ndim != 3:
        raise ShapeError(f"conv1d_forward needs [batch, length, channels], got {seq.shape}")
    x3 = seq.data
    batch, length, channels = x3.shape
    k = layer.kernel_size
    if channels != layer.in_channels:
        raise ShapeError(f"conv1d_forward channels {channels} do not match in_channels {layer.in_channels}")
    if length < k:
        raise ShapeError(f"conv1d_forward sequence length {length} shorter than kernel size {k}")
    out_len = length - k + 1
    w = layer.w.data
    out = np.empty((batch, out_len, layer.filters))
    out[:] = layer.b.data
    # term-by-term accumulation (k outer, channel inner) so the result is
    # bit-identical to a naive triple-loop evaluation of the same sum
    for kk in range(k):
        xs = x3[:, kk : kk + out_len, :]
        for c in range(channels):
            out += xs[:, :, c, None] * w[:, kk, c]

    def grad_w(g):
        gw = np.empty_like(w)
        for kk in range(k):
            gw[:, kk, :] = np.tensordot(g, x3[:, kk : kk + out_len, :], axes=([0, 1], [0, 1]))
        return gw

    def grad_seq(g):
        gx = np.zeros_like(x3)
        for kk in range(k):
            gx[:, kk : kk + out_len, :] += g @ w[:, kk, :]
        return gx

    return _record("conv1d", out, (layer.b, lambda g: g.sum(axis=(0, 1))), (layer.w, grad_w), (seq, grad_seq))


def maxpool1d_forward(pool: MaxPool1D, seq: Tensor) -> Tensor:
    """Per-channel windowed maximum; trailing partial windows are dropped.

    The gradient routes to the window's argmax element, first occurrence on ties.
    """
    if seq.ndim != 3:
        raise ShapeError(f"maxpool1d_forward needs [batch, length, channels], got {seq.shape}")
    x3 = seq.data
    length = x3.shape[1]
    p, s = pool.pool_size, pool.stride
    if length < p:
        raise ShapeError(f"maxpool1d_forward sequence length {length} shorter than pool size {p}")
    # running max over the p window offsets: window j's offset-k element is
    # x3[:, j*s + k], so each offset is one strided slice of the sequence
    stop = (length - p) // s * s + 1
    out = x3[:, :stop:s].copy()
    # offsets below p: one byte each for any pool of up to 256
    argmax = np.zeros(out.shape, dtype=np.min_scalar_type(p - 1))
    for k in range(1, p):
        cand = x3[:, k : k + stop : s]
        # strictly greater keeps the first maximum on ties; like argmax, the
        # first NaN in a window wins and is never replaced
        take = ~(cand <= out) & (out == out)
        out = np.where(take, cand, out)
        argmax = np.where(take, k, argmax)

    def grad_seq(g):
        gx = np.zeros_like(x3)
        # np.add.at adds in (b, j, c) order, so overlapping windows sum in j order
        b, j, c = np.ogrid[: argmax.shape[0], : argmax.shape[1], : argmax.shape[2]]
        np.add.at(gx, (b, j * s + argmax, c), g)
        return gx

    return _record("maxpool1d", out, (seq, grad_seq))


def time_distributed_dense(layer: DenseLayer, seq: Tensor) -> Tensor:
    """Apply one shared affine layer at every step of a [..., T, in] sequence, as one ``linear``."""
    return linear(seq, layer.W, layer.b)
