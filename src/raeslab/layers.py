"""Differentiable layers: GRU, dense output head, 1D convolution and pooling.

Every layer takes batches: sequences are [batch, length, channels] and GRU
states [batch, hidden]; one sequence is a batch of one. The GRU unrolls a
whole [B, T, input] sequence, or one [B, input] step read at every step, as
one tape record and returns the states as one [B, T, hidden] tensor, or only
the final [B, hidden] state for the encoder's context; the dense head is one ``linear``
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
    "Steps",
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
    convex combination h' = (1 - z)*h + z*h~. The gates are stored stacked,
    rows in z, r, candidate order: W [3H, input], U [3H, H] and b [3H].
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        if input_size < 1 or hidden_size < 1:
            raise ValueError(f"GRULayer sizes must be >= 1, got ({input_size}, {hidden_size})")
        self.input_size = input_size
        self.hidden_size = hidden_size
        h, i = hidden_size, input_size
        # each gate's blocks are drawn on their own [H, in] and [H, H] shapes, which set their
        # Glorot limits, in the order W_z, U_z, W_r, U_r, W_h, U_h
        blocks = [init_params(shape, rng).data for _ in "zrh" for shape in ((h, i), (h, h))]
        self.W = Tensor(np.concatenate(blocks[0::2]), requires_grad=True, name="W")
        self.U = Tensor(np.concatenate(blocks[1::2]), requires_grad=True, name="U")
        self.b = init_params((3 * h,), rng, "b")

    def parameters(self) -> list[Tensor]:
        return [self.W, self.U, self.b]


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


class Steps:
    """A GRU's input: a [B, T, input] sequence's T steps, or one [B, input]
    step read at each of ``count`` steps (rae's repeated context) through a
    view that repeats it along T; ``data`` is that [B, T, input] array."""

    def __init__(self, x: Tensor, count: int | None = None):
        self.x, self.data = x, x.data
        if x.ndim == 2 and count is not None:
            self.data = np.broadcast_to(x.data[:, None], (x.shape[0], count, x.shape[1]))
        elif x.ndim != 3 or count not in (None, x.shape[1]):
            raise ShapeError(f"steps of {x.shape}, count={count}: not [batch, T, input] or [batch, input] and a count")

    def __len__(self) -> int:
        return self.data.shape[1]


def gru_forward(layer: GRULayer, steps: Steps, h0: Tensor, final: bool = False) -> Tensor:
    """Unroll the cell over its input steps as one tape record.

    h0 is [B, hidden]. The states come back as one [B, T, hidden] tensor or,
    with ``final`` true, only the last one as [B, hidden] (the encoder's
    context); untaped, that mode builds no state sequence. Each step works
    feature-major on the layer's stacked gates, with two GEMMs into one
    [3H, B] block with contiguous z, r and candidate rows. Both read one
    operand [h; 1; x; r*h], which holds the step's input: the z/r GEMM reads
    its rows [h; 1; x] with the weights -[U b W] of those gates, so it writes
    -a for the logistic 1/(1+e^-a), and the candidate GEMM reads its rows
    [1; x; r*h] with [b W U]. The new state h + z*(c - h) is written into
    the next step's operand. A tape keeps each step's block until the
    backward has replayed that step; with no tape one block serves every
    step. The stacked GEMMs sum in another order than per-gate ones: states
    and gradients match those to 1e-12.
    """
    if h0.ndim != 2 or h0.shape[1] != layer.hidden_size:
        raise ShapeError(f"gru_forward state {h0.shape} is not [batch, hidden_size={layer.hidden_size}]")
    H, B, n = layer.hidden_size, h0.shape[0], layer.input_size
    x, xs, T = steps.x, steps.data, len(steps)
    if xs.shape[::2] != (B, n):
        raise ShapeError(f"gru_forward steps {xs.shape} are not [batch={B}, T, input_size={n}]")
    if T < 1:
        raise ValueError("gru_forward needs at least one input step")
    params = layer.parameters()
    W, U, b = (p.data for p in params)
    # the biases join the GEMMs, since a bias added after one rounds
    # differently; the tape does not keep these copies, the backward reads
    # W and U themselves
    nUbW = np.concatenate((U[: 2 * H], b[: 2 * H, None], W[: 2 * H]), axis=1)
    np.negative(nUbW, out=nUbW)
    bWU = np.concatenate((b[2 * H :, None], W[2 * H :], U[2 * H :]), axis=1)
    # per parity of t an operand [h; 1; x; r*h]: the blend writes h into the
    # other one; scratch takes h~ - h
    operands, scratch = np.ones((2, 2 * H + 1 + n, B)), np.empty((H, B))
    operands[0, :H] = h0.data.T
    # per parity: the z/r and candidate operands, the h, x and r*h rows and
    # the rows the blend writes
    views = [
        (o[: H + 1 + n], o[H:], o[:H], o[H + 1 : H + 1 + n], o[H + 1 + n :], operands[1 - i, :H])
        for i, o in enumerate(operands)
    ]
    saved = [] if active_tape() is not None else None
    # the backward reads every state, so only an untaped final mode skips them
    states = None if final and saved is None else np.empty((B, T, H))
    block = None if saved is not None else np.empty((3 * H, B))
    # untaped, every step's gate rows are those of the one block
    gates = None if block is None else (block[: 2 * H], block[:H], block[H : 2 * H], block[2 * H :])
    for t in range(T):
        hxb, crh, hT, xT, rh, hn = views[t % 2]
        np.copyto(xT, xs[:, t].T)
        P = np.empty((3 * H, B)) if block is None else block
        zr, z, r, cand = gates or (P[: 2 * H], P[:H], P[H : 2 * H], P[2 * H :])
        _logistic_neg(np.matmul(nUbW, hxb, out=zr))
        np.multiply(r, hT, out=rh)
        np.tanh(np.matmul(bWU, crh, out=cand), out=cand)
        d = np.subtract(cand, hT, out=scratch)
        d *= z
        np.add(hT, d, out=hn)
        if states is not None:
            states[:, t] = hn.T
        if saved is not None:
            saved.append(P)

    def back(g, x=x, xs=xs, h0=h0, states=states, saved=saved):
        # Per step the elementwise expressions and their order are those of
        # the per-gate composition replayed in reverse, in place: the spent
        # block becomes the gate gradient G = [g_z; g_r; g_c], rows as in W.
        # A state's gradient is its head gradient (only the last one has one
        # in final mode) plus the next step's dh*(1 - z), (U_h^T g_c)*r and
        # U_zr^T G[:2H]. Against the operands [h; 1] and [r*h; 1], the
        # gradient GEMMs of G's z/r and candidate rows fill those rows of
        # dUb = [dU db], bias gradients as its last column. Parameter
        # gradients are running sums, added in at the end. A sequence's
        # input gradient is formed a step at a time, as the steps' blocks are
        # freed, and added into the sequence's at the end; a repeated step's
        # sums its steps'.
        U_zr, U_h = U[: 2 * H], U[2 * H :]
        dW, dUb = np.zeros(W.shape), np.zeros((3 * H, H + 1))
        # one buffer takes a repeated step's input-gradient GEMM and then each
        # step's three weight-gradient GEMMs in turn
        shapes = ((B, n), W.shape, (2 * H, H + 1), (H, H + 1))
        gemm = np.empty(max(m * k for m, k in shapes))
        gx, wx, uzr, uh = (gemm[: m * k].reshape(m, k) for m, k in shapes)
        gxs = [None] * T if x.requires_grad and x.ndim == 3 else None
        dh = (g if final else g[:, -1]).T.copy()
        hb, rhb = np.ones((2, H + 1, B))
        hT = hb[:H]
        q, s = np.empty((H, B)), np.empty((H, B))
        for t in range(T - 1, -1, -1):
            G = saved[t]
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
                if final:
                    np.add(dh, s, out=q)
                else:
                    np.add(g[:, t - 1].T if t else 0.0, dh, out=q)
                    q += s
                q += np.matmul(U_zr.T, G[: 2 * H], out=s)
                dh, q = q, dh
            if gxs is not None:
                gxs[t] = G.T @ W
            elif x.requires_grad:
                accumulate_grad(x, np.matmul(G.T, W, out=gx))
            dW += np.matmul(G, xs[:, t], out=wx)
            dUb[: 2 * H] += np.matmul(G[: 2 * H], hb.T, out=uzr)
            dUb[2 * H :] += np.matmul(cand, rhb.T, out=uh)
        if gxs is not None:
            # added into zeros last step first, each step's freed once added
            if x.grad is None:
                x.grad = np.zeros(x.shape)
            for t in range(T - 1, -1, -1):
                x.grad[:, t] += gxs[t]
                gxs[t] = None
        for p, grad in zip((*params, h0), (dW, dUb[:, :H], dUb[:, H], dh.T)):
            if p.requires_grad:
                accumulate_grad(p, grad)

    return record_op("gru_forward", hn.T.copy() if final else states, (x, h0, *params), back)


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
    w, b = layer.w.data, layer.b.data
    out = np.empty((batch, out_len, layer.filters))
    # term-by-term accumulation (k outer, channel inner) so the result is
    # bit-identical to a naive triple-loop evaluation of the same sum (IEEE
    # addition commutes, so the first product plus b is b plus it); a few
    # sequences at a time, so about 512 KiB of output stays in cache while
    # every term adds into it
    rows = max(1, 2**19 // (8 * out_len * layer.filters))
    prod = np.empty((min(rows, batch), out_len, layer.filters))
    terms = [(kk, c) for kk in range(k) for c in range(channels)]
    for i in range(0, batch, rows):
        xb, ob = x3[i : i + rows], out[i : i + rows]
        np.multiply(xb[:, :out_len, 0, None], w[:, 0, 0], out=ob)
        ob += b
        for kk, c in terms[1:]:
            ob += np.multiply(xb[:, kk : kk + out_len, c, None], w[:, kk, c], out=prod[: len(ob)])

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

    The gradient routes to the window's argmax element, first occurrence on
    ties. A window holding NaN returns its last NaN's bits and routes to the
    first element with those bits: its first NaN, unless its NaNs differ in bits.
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
    # x3[:, j*s + k], so each offset is one strided slice of the sequence.
    # np.maximum returns its second operand on ties, so the first maximum
    # wins (-0.0 stays ahead of +0.0), and a NaN operand propagates
    stop = (length - p) // s * s + 1
    out = x3[:, :stop:s].copy()
    for k in range(1, p):
        np.maximum(x3[:, k : k + stop : s], out, out=out)
    if not (seq.requires_grad and active_tape() is not None):
        return Tensor(out)
    # the argmax is the first offset whose element has the output's bits, so
    # the count of leading offsets that miss them; offsets below p take one
    # byte each for any pool of up to 256
    bits, out_bits = x3.view(np.uint64), out.view(np.uint64)
    miss = bits[:, :stop:s] != out_bits
    argmax = miss.astype(np.min_scalar_type(p - 1))
    for k in range(1, p - 1):
        miss &= bits[:, k : k + stop : s] != out_bits
        argmax += miss

    def grad_seq(g):
        # reads the input's shape and the argmax, not the input: window
        # (b, j, c) sends g to the flat index of (b, j*s + argmax, c), and
        # bincount sums an input shared by overlapping windows in window
        # order. The targets take g's strides, so both flatten in g's memory
        # order without a copy (swap_last_axes passes g on C-contiguous, so
        # the targets are walked in order)
        batch, windows, channels = g.shape
        target = np.multiply(argmax, channels, dtype=np.intp, out=np.empty_like(g, dtype=np.intp))
        target += ((np.arange(batch)[:, None] * length + np.arange(windows) * s) * channels)[..., None]
        target += np.arange(channels)
        # shaped in place: a fresh array becomes the input's gradient uncopied
        gx = np.bincount(target.ravel("K"), g.ravel("K"), np.prod(shape))
        gx.shape = shape
        return gx

    return _record("maxpool1d", out, (seq, grad_seq))


def time_distributed_dense(layer: DenseLayer, seq: Tensor) -> Tensor:
    """Apply one shared affine layer at every step of a [..., T, in] sequence, as one ``linear``."""
    return linear(seq, layer.W, layer.b)
