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

from .tensor import ShapeError, Tensor, _logistic_neg, _record, accumulate_grad, active_tape, linear, record_op

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

    def __init__(self, pool_size: int, stride: int):
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.pool_size = pool_size
        self.stride = stride


def gru_forward(layer: GRULayer, xs, h0: Tensor) -> Tensor:
    """Unroll the cell over a list of [B, input] steps as one tape record.

    h0 is [B, hidden] and the states come back as one [B, T, hidden] tensor.
    Each step works feature-major on stacked gates: W3 = [W_z; W_r; W_h] times
    the step's input is one [3H, B] block with contiguous z, r and candidate
    rows. The state operand is [h; 1], so the stacked state weights
    [U_z b_z; U_r b_r] and [U_h b_h] add each gate's bias inside their GEMM.
    The z and r state weights are stacked negated, so the step forms -a for
    the logistic 1/(1+e^-a) with one subtract, and the new state h + z*(c - h)
    is written into the next step's state operand. A tape keeps each step's
    block until the backward has replayed that step; with no tape one block
    serves every step. The stacked GEMMs sum in another order than per-gate
    ones: states and gradients match those to 1e-12.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("gru_forward needs at least one input step")
    if h0.ndim != 2 or h0.shape[1] != layer.hidden_size:
        raise ShapeError(f"gru_forward state {h0.shape} is not [batch, hidden_size={layer.hidden_size}]")
    step_shape = (h0.shape[0], layer.input_size)
    if any(x.shape != step_shape for x in xs):
        raise ShapeError(f"gru_forward steps must all be [batch, input_size] {step_shape} for state {h0.shape}")
    params = layer.parameters()
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = (p.data for p in params)
    H, B = layer.hidden_size, h0.shape[0]
    W3 = np.concatenate((W_z, W_r, W_h))
    nU2b = -np.block([[U_z, b_z[:, None]], [U_r, b_r[:, None]]])
    Uhb = np.column_stack((U_h, b_h))
    # two state operands [h; 1] that the blend writes in turn, and [r*h; 1];
    # scratch takes the step's state-side products
    operands, scratch = np.ones((3, H + 1, B)), np.empty((2 * H, B))
    rhb = operands[2]
    operands[0, :H] = h0.data.T
    states = np.empty((B, len(xs), H))
    saved = [] if active_tape() is not None else None
    block = None if saved is not None else np.empty((3 * H, B))
    for t, x in enumerate(xs):
        hb, hn = operands[t % 2], operands[1 - t % 2]
        hT = hb[:H]
        P = np.matmul(W3, x.data.T, out=block)
        zr, z, r, cand = P[: 2 * H], P[:H], P[H : 2 * H], P[2 * H :]
        np.subtract(np.matmul(nU2b, hb, out=scratch), zr, out=zr)
        _logistic_neg(zr)
        np.multiply(r, hT, out=rhb[:H])
        cand += np.matmul(Uhb, rhb, out=scratch[:H])
        np.tanh(cand, out=cand)
        d = np.subtract(cand, hT, out=scratch[:H])
        d *= z
        np.add(hT, d, out=hn[:H])
        states[:, t] = hn[:H].T
        if saved is not None:
            saved.append(P)

    def back(g, xs=xs, h0=h0, states=states, saved=saved):
        # Per step the elementwise expressions and their order are those of
        # the per-gate composition replayed in reverse, in place: the spent
        # block becomes the gate gradient G = [g_z; g_r; g_c], rows as in W3.
        # A state's gradient is its head gradient plus the next step's
        # dh*(1 - z), (U_h^T g_c)*r and U2^T G[:2H]. Against the operands
        # [h; 1] and [r*h; 1], the state weights' gradient GEMMs return the
        # bias gradients as their last column. Parameter gradients are running
        # sums, added into the nine tensors once at the end. The weights are
        # stacked here again, so the tape holds no stacked copy until the
        # backward reaches this record.
        W3, U2 = np.concatenate((W_z, W_r, W_h)), np.concatenate((U_z, U_r))
        dW3, dU2b, dUhb = np.zeros(W3.shape), np.zeros((2 * H, H + 1)), np.zeros((H, H + 1))
        # one buffer takes each step's input-gradient GEMM and then its three
        # weight-gradient GEMMs in turn
        shapes = ((B, W3.shape[1]), W3.shape, dU2b.shape, dUhb.shape)
        gemm = np.empty(max(m * n for m, n in shapes))
        gx, wx, uzr, uh = (gemm[: m * n].reshape(m, n) for m, n in shapes)
        dh = g[:, -1].T.copy()
        hb, rhb = np.ones((2, H + 1, B))
        hT = hb[:H]
        q, s = np.empty((H, B)), np.empty((H, B))
        for t in range(len(xs) - 1, -1, -1):
            x, G = xs[t], saved[t]
            saved[t] = None
            z, r, cand = G[:H], G[H : 2 * H], G[2 * H :]
            np.copyto(hT, states[:, t - 1].T if t else h0.data.T)
            np.multiply(np.subtract(cand, hT, out=q), dh, out=q)
            # g_c = dh*z*(1 - cand^2) and g_z = (cand - h)*dh*z*(1 - z) take
            # the candidate's and z's rows
            np.subtract(1.0, np.multiply(cand, cand, out=s), out=s)
            np.multiply(dh, z, out=cand)
            cand *= s
            dh *= np.subtract(1.0, z, out=s)
            z *= q
            z *= s
            # s takes g_rh = U_h^T g_c; g_r = g_rh*h*r*(1 - r) takes r's rows
            # once r*h and g_rh*r are made
            np.matmul(U_h.T, cand, out=s)
            np.multiply(s, hT, out=q)
            q *= r
            np.multiply(r, hT, out=rhb[:H])
            s *= r
            np.subtract(1.0, r, out=r)
            r *= q
            if t or h0.requires_grad:
                np.add(g[:, t - 1].T if t else 0.0, dh, out=q)
                q += s
                q += np.matmul(U2.T, G[: 2 * H], out=s)
                dh, q = q, dh
            if x.requires_grad:
                accumulate_grad(x, np.matmul(G.T, W3, out=gx))
            dW3 += np.matmul(G, x.data, out=wx)
            dU2b += np.matmul(G[: 2 * H], hb.T, out=uzr)
            dUhb += np.matmul(cand, rhb.T, out=uh)
        dU, db = dU2b[:, :H], dU2b[:, H]
        grads = (dW3[:H], dU[:H], db[:H], dW3[H : 2 * H], dU[H:], db[H:], dW3[2 * H :], dUhb[:, :H], dUhb[:, H])
        for p, grad in zip((*params, h0), (*grads, dh.T)):
            if p.requires_grad:
                accumulate_grad(p, grad)

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
    # bit-identical to a naive triple-loop evaluation of the same sum; every
    # product goes through one buffer
    prod = np.empty_like(out)
    for kk in range(k):
        xs = x3[:, kk : kk + out_len, :]
        for c in range(channels):
            out += np.multiply(xs[:, :, c, None], w[:, kk, c], out=prod)

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
    shape = x3.shape
    length = shape[1]
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
        # reads the input's shape and the argmax, not the input
        gx = np.zeros(shape)
        # one strided add per window offset; an input shared by overlapping
        # windows is hit by larger offsets from earlier windows, so walking the
        # offsets down sums its gradients in window order
        for k in range(p - 1, -1, -1):
            gx[:, k : k + stop : s] += np.where(argmax == k, g, 0.0)
        return gx

    return _record("maxpool1d", out, (seq, grad_seq))


def time_distributed_dense(layer: DenseLayer, seq: Tensor) -> Tensor:
    """Apply one shared affine layer at every step of a [..., T, in] sequence, as one ``linear``."""
    return linear(seq, layer.W, layer.b)
