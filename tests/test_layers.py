"""Layer semantics against hand-derived cases and independent naive oracles."""

import numpy as np
import pytest

from raeslab.gradcheck import check_gradients
from raeslab.layers import (
    Conv1DLayer,
    DenseLayer,
    GRULayer,
    MaxPool1D,
    conv1d_forward,
    gru_forward,
    init_params,
    maxpool1d_forward,
    time_distributed_dense,
)
from raeslab.tensor import (
    ShapeError,
    Tape,
    Tensor,
    _logistic_neg,
    accumulate_grad,
    active_tape,
    backward,
    linear,
    mul,
    record_op,
    sigmoid,
    sum_all,
    swap_last_axes,
    tanh_op,
    unstack_steps,
    zero_grads,
)


def naive_conv1d(x, w, b):
    """Triple-loop oracle for valid cross-correlation; x [L,C], w [F,K,C], b [F]."""
    length, channels = x.shape
    filters, kernel, _ = w.shape
    out = np.zeros((length - kernel + 1, filters))
    for i in range(out.shape[0]):
        for f in range(filters):
            acc = b[f]
            for k in range(kernel):
                for c in range(channels):
                    acc += x[i + k, c] * w[f, k, c]
            out[i, f] = acc
    return out


def naive_maxpool(x, pool, stride):
    """Windowed-max oracle; trailing partial windows dropped."""
    length, channels = x.shape
    out_len = (length - pool) // stride + 1
    out = np.zeros((out_len, channels))
    for j in range(out_len):
        for c in range(channels):
            out[j, c] = max(x[j * stride + k, c] for k in range(pool))
    return out


def oracle_maxpool(x, g, pool, stride):
    """sliding_window_view/argmax max-pool of [B, L, C] x and its np.add.at input gradient for g."""
    windows = np.lib.stride_tricks.sliding_window_view(x, pool, axis=1)[:, ::stride]
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    gx = np.zeros_like(x)
    b, j, c = np.ogrid[: argmax.shape[0], : argmax.shape[1], : argmax.shape[2]]
    np.add.at(gx, (b, j * stride + argmax, c), g)
    return out, gx


def oracle_conv1d_unblocked(x, w, b, g):
    """The whole-batch conv1d kernel the blocked one replaced, kept as an oracle.

    x [B, L, C], w [F, K, C], b [F] and the output gradient g; returns the
    output and the gradients of x, w and b.
    """
    kernel = w.shape[1]
    out_len = x.shape[1] - kernel + 1
    out = np.empty((x.shape[0], out_len, w.shape[0]))
    out[:] = b
    prod = np.empty_like(out)
    for kk in range(kernel):
        xs = x[:, kk : kk + out_len, :]
        for c in range(x.shape[2]):
            out += np.multiply(xs[:, :, c, None], w[:, kk, c], out=prod)
    gx, gw = np.zeros_like(x), np.empty_like(w)
    for kk in range(kernel):
        gw[:, kk, :] = np.tensordot(g, x[:, kk : kk + out_len, :], axes=([0, 1], [0, 1]))
        gx[:, kk : kk + out_len, :] += g @ w[:, kk, :]
    return out, gx, gw, g.sum(axis=(0, 1))


def oracle_maxpool_where(x, g, pool, stride):
    """The np.where running max-pool the one-pass kernel replaced and its
    offset-loop input gradient for g, kept as an oracle."""
    stop = (x.shape[1] - pool) // stride * stride + 1
    out = x[:, :stop:stride].copy()
    argmax = np.zeros(out.shape, dtype=np.min_scalar_type(pool - 1))
    for k in range(1, pool):
        cand = x[:, k : k + stop : stride]
        take = ~(cand <= out) & (out == out)
        out = np.where(take, cand, out)
        argmax = np.where(take, k, argmax)
    gx = np.zeros(x.shape)
    for k in range(pool - 1, -1, -1):
        gx[:, k : k + stop : stride] += np.where(argmax == k, g, 0.0)
    return out, gx


def oracle_gate_preact(x, w, b, h, u):
    """x @ w.T + h @ u.T + b as one tape record."""
    out = x.data @ w.data.T + h.data @ u.data.T + b.data

    def back(g):
        if x.requires_grad:
            accumulate_grad(x, g @ w.data)
        if w.requires_grad:
            accumulate_grad(w, g.T @ x.data)
        if h.requires_grad:
            accumulate_grad(h, g @ u.data)
        if u.requires_grad:
            accumulate_grad(u, g.T @ h.data)
        if b.requires_grad:
            accumulate_grad(b, g.sum(axis=0))

    return record_op("gate_preact", out, (x, w, b, h, u), back)


def oracle_gate_blend(z, h, cand):
    """(1 - z) * h + z * cand as one tape record."""
    out = (1.0 - z.data) * h.data + z.data * cand.data

    def back(g):
        if z.requires_grad:
            accumulate_grad(z, g * (cand.data - h.data))
        if h.requires_grad:
            accumulate_grad(h, g * (1.0 - z.data))
        if cand.requires_grad:
            accumulate_grad(cand, g * z.data)

    return record_op("gate_blend", out, (z, h, cand), back)


def oracle_gru_step(layer, x, h):
    """The GRU step as eight separate tape records, one per gate operation."""
    z = sigmoid(oracle_gate_preact(x, layer.W_z, layer.b_z, h, layer.U_z))
    r = sigmoid(oracle_gate_preact(x, layer.W_r, layer.b_r, h, layer.U_r))
    cand = tanh_op(oracle_gate_preact(x, layer.W_h, layer.b_h, mul(r, h), layer.U_h))
    return oracle_gate_blend(z, h, cand)


def oracle_gru_inplace(layer, xs, h0):
    """The batch-major GRU kernel the stacked one replaced, kept as an oracle.

    Each gate is its own [B, H] GEMMs, evaluated term by term in place, so
    states and gradients are bit-identical to the per-gate composition.
    """
    xs = list(xs)
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = params = layer.parameters()
    WzT, UzT, WrT, UrT, WhT, UhT = (w.data.T for w in (W_z, U_z, W_r, U_r, W_h, U_h))
    h2 = h0.data
    states = np.empty((h2.shape[0], len(xs), layer.hidden_size))
    # each gate's expression is evaluated term by term, in place and in its
    # order, so it rounds as the out-of-place expression does; scratch takes
    # the step's [B, H] products
    scratch = np.empty_like(h2)
    saved = [] if active_tape() is not None else None
    for t, x2 in enumerate(x.data for x in xs):
        z = x2 @ WzT
        z += np.matmul(h2, UzT, out=scratch)
        z += b_z.data
        _logistic_neg(np.negative(z, out=z))
        r = x2 @ WrT
        r += np.matmul(h2, UrT, out=scratch)
        r += b_r.data
        _logistic_neg(np.negative(r, out=r))
        cand = x2 @ WhT
        cand += np.multiply(r, h2, out=scratch) @ UhT
        cand += b_h.data
        np.tanh(cand, out=cand)
        hn = 1.0 - z
        hn *= h2
        hn += np.multiply(z, cand, out=scratch)
        h2 = states[:, t] = hn
        if saved is not None:
            saved.append((z, r, cand))

    def back(g, xs=xs, h0=h0, states=states, saved=saved):
        # Per step, the expressions and the order in which terms are added
        # into x, the previous state and each parameter are those of the
        # per-gate composition (``oracle_gru_step``) replayed
        # in reverse, so every gradient rounds identically to it. A state's
        # gradient is its head gradient plus the next step's four terms.
        # Each expression is evaluated in place on a buffer the step owns:
        # scratch holds 1 - cand^2, then 1 - r, then 1 - z and a GEMM; the
        # spent cand becomes g_z, the spent r becomes r*h, and the weight
        # gradients' GEMMs write into wx and uh.
        dh = g[:, -1].copy()
        scratch = np.empty_like(dh)
        wx, uh = np.empty(W_z.shape), np.empty(U_z.shape)
        for t in range(len(xs) - 1, -1, -1):
            x, (z, r, cand) = xs[t], saved[t]
            saved[t] = None
            # a contiguous copy: the strided view slows the GEMMs and products below
            h2 = states[:, t - 1].copy() if t else h0.data
            g_c = dh * z
            g_c *= np.subtract(1.0, np.multiply(cand, cand, out=scratch), out=scratch)
            g_rh = g_c @ U_h.data
            g_r = g_rh * h2
            g_r *= r
            g_r *= np.subtract(1.0, r, out=scratch)
            g_z = cand
            g_z -= h2
            g_z *= dh
            g_z *= z
            g_z *= np.subtract(1.0, z, out=scratch)
            if t or h0.requires_grad:
                dh *= scratch
                g_rh *= r
                terms = (dh, g_rh, np.matmul(g_r, U_r.data, out=scratch), g_z @ U_z.data)
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
            rh = np.multiply(r, h2, out=r)
            for gate, w, u, b, state in ((g_z, W_z, U_z, b_z, h2), (g_r, W_r, U_r, b_r, h2), (g_c, W_h, U_h, b_h, rh)):
                if w.requires_grad:
                    accumulate_grad(w, np.matmul(gate.T, x.data, out=wx))
                if u.requires_grad:
                    accumulate_grad(u, np.matmul(gate.T, state, out=uh))
                if b.requires_grad:
                    accumulate_grad(b, gate.sum(axis=0))

    return record_op("gru_inplace", states, (*xs, h0, *params), back)


def oracle_gru_split(layer, xs, h0):
    """The split-GEMM kernel the fused one replaced, kept as an oracle.

    Each step runs its input GEMM W x into a [3H, B] block, then a state GEMM
    against [h; 1] for the z/r rows, merged by a subtract, and one against
    [r*h; 1] for the candidate rows, merged by an add. Its backward is the
    one ``gru_forward`` keeps, which reads the same post-activation block.
    """
    xs = list(xs)
    params = layer.parameters()
    W, U, b = (p.data for p in params)
    H, B = layer.hidden_size, h0.shape[0]
    Ub = np.empty((3 * H, H + 1))
    Ub[:, :H], Ub[:, H] = U, b
    nU2b, Uhb = np.negative(Ub[: 2 * H], out=Ub[: 2 * H]), Ub[2 * H :]
    operands, scratch = np.ones((3, H + 1, B)), np.empty((2 * H, B))
    rhb, rh, sH = operands[2], operands[2, :H], scratch[:H]
    operands[0, :H] = h0.data.T
    states, saved = np.empty((B, len(xs), H)), []
    for t, x in enumerate(xs):
        hb, hT, hn = operands[t % 2], operands[t % 2, :H], operands[1 - t % 2, :H]
        P = W @ x.data.T
        zr, z, r, cand = P[: 2 * H], P[:H], P[H : 2 * H], P[2 * H :]
        np.subtract(np.matmul(nU2b, hb, out=scratch), zr, out=zr)
        _logistic_neg(zr)
        np.multiply(r, hT, out=rh)
        cand += np.matmul(Uhb, rhb, out=sH)
        np.tanh(cand, out=cand)
        d = np.subtract(cand, hT, out=sH)
        d *= z
        np.add(hT, d, out=hn)
        states[:, t] = hn.T
        saved.append(P)

    def back(g, xs=xs, h0=h0, states=states, saved=saved):
        U_zr, U_h = U[: 2 * H], U[2 * H :]
        dW, dUb = np.zeros(W.shape), np.zeros((3 * H, H + 1))
        dh = g[:, -1].T.copy()
        hb, rhb = np.ones((2, H + 1, B))
        hT = hb[:H]
        q, s = np.empty((H, B)), np.empty((H, B))
        for t in range(len(xs) - 1, -1, -1):
            x, G = xs[t], saved[t]
            z, r, cand = G[:H], G[H : 2 * H], G[2 * H :]
            np.copyto(hT, states[:, t - 1].T if t else h0.data.T)
            np.multiply(np.subtract(cand, hT, out=q), dh, out=q)
            np.subtract(1.0, np.multiply(cand, cand, out=s), out=s)
            np.multiply(dh, z, out=cand)
            cand *= s
            dh *= np.subtract(1.0, z, out=s)
            z *= q
            z *= s
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
                q += np.matmul(U_zr.T, G[: 2 * H], out=s)
                dh, q = q, dh
            if x.requires_grad:
                accumulate_grad(x, G.T @ W)
            dW += G @ x.data
            dUb[: 2 * H] += G[: 2 * H] @ hb.T
            dUb[2 * H :] += cand @ rhb.T
        for p, grad in zip((*params, h0), (dW, dUb[:, :H], dUb[:, H], dh.T)):
            if p.requires_grad:
                accumulate_grad(p, grad)

    return record_op("gru_split", states, (*xs, h0, *params), back)


def oracle_stack_steps(steps):
    """Per-step states [B, H] stacked to [B, T, H] as one tape record."""
    axis = steps[0].ndim - 1
    out = np.stack([s.data for s in steps], axis=axis)

    def back(g):
        for i, s in enumerate(steps):
            if s.requires_grad:
                accumulate_grad(s, np.take(g, i, axis=axis))

    return record_op("stack_steps", out, tuple(steps), back)


class PerGate:
    """A GRULayer's stacked W, U and b as the nine per-gate tensors the
    oracles read, each a view of its row block: a C-contiguous row slice is
    not copied, so writing a view writes the layer."""

    def __init__(self, layer):
        self.input_size, self.hidden_size = layer.input_size, layer.hidden_size
        H = layer.hidden_size
        for name, p in zip("WUb", layer.parameters()):
            for k, gate in enumerate("zrh"):
                view = Tensor(p.data[k * H : (k + 1) * H], requires_grad=True, name=f"{name}_{gate}")
                assert np.shares_memory(view.data, p.data)
                setattr(self, f"{name}_{gate}", view)

    def parameters(self):
        return [getattr(self, f"{name}_{gate}") for gate in "zrh" for name in "WUb"]

    def stacked_grads(self):
        """The nine gradients concatenated into W's, U's and b's shapes."""
        grads = [p.grad for p in self.parameters()]
        return [np.concatenate(grads[k::3]) for k in range(3)]


def zeroed_gru(input_size, hidden_size):
    layer = GRULayer(input_size, hidden_size, np.random.default_rng(0))
    for p in layer.parameters():
        p.data[:] = 0.0
    return layer


class TestGRUStep:
    """gru_forward over a single step is the GRU cell."""

    def test_zero_params_zero_state(self):
        layer = zeroed_gru(3, 4)
        out = gru_forward(layer, [Tensor([[1.0, -2.0, 0.5]])], Tensor(np.zeros((1, 4))))
        assert np.array_equal(out.data[0], np.zeros((1, 4)))

    def test_zero_params_halves_state(self):
        layer = zeroed_gru(2, 3)
        v = np.array([0.4, -1.2, 2.0])
        out = gru_forward(layer, [Tensor([[1.0, 1.0]])], Tensor(v[None]))
        assert np.allclose(out.data[0][0], 0.5 * v, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_convex_combination_bound(self, seed):
        rng = np.random.default_rng(seed)
        layer = GRULayer(3, 5, rng)
        h = Tensor(rng.uniform(-2.0, 2.0, (1, 5)))
        out = gru_forward(layer, [Tensor(rng.uniform(-1.0, 1.0, (1, 3)))], h)
        bound = np.maximum(np.abs(h.data), 1.0)
        assert np.all(np.abs(out.data[0]) <= bound)

    def test_shape_mismatch(self):
        layer = zeroed_gru(3, 4)
        with pytest.raises(ShapeError):
            gru_forward(layer, [Tensor([[1.0, 2.0]])], Tensor(np.zeros((1, 4))))
        with pytest.raises(ShapeError):
            gru_forward(layer, [Tensor([[1.0, 2.0, 3.0]])], Tensor(np.zeros((1, 5))))
        with pytest.raises(ShapeError):
            gru_forward(layer, [Tensor(np.zeros((2, 3)))], Tensor(np.zeros((3, 4))))


class TestGRULayerInit:
    """The stacked parameters hold the per-gate Glorot draws of a layer that
    stores each gate apart, so initial values and losses stay as they were."""

    @pytest.mark.parametrize(("n_in", "hidden"), [(1, 1), (1, 50), (4, 200), (7, 3)])
    def test_blocks_are_six_per_gate_draws_in_gate_order(self, n_in, hidden):
        layer = GRULayer(n_in, hidden, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        W_z, U_z, W_r, U_r, W_h, U_h = (init_params(shape, rng).data for shape in [(hidden, n_in), (hidden, hidden)] * 3)
        assert np.array_equal(layer.W.data, np.concatenate((W_z, W_r, W_h)))
        assert np.array_equal(layer.U.data, np.concatenate((U_z, U_r, U_h)))
        assert np.array_equal(layer.b.data, np.zeros(3 * hidden))

    def test_parameters_are_W_U_b(self):
        n_in, hidden = 4, 6
        layer = GRULayer(n_in, hidden, np.random.default_rng(0))
        params = layer.parameters()
        assert len(params) == 3 and all(p is q for p, q in zip(params, (layer.W, layer.U, layer.b)))
        assert [p.shape for p in params] == [(3 * hidden, n_in), (3 * hidden, hidden), (3 * hidden,)]
        assert sum(p.data.size for p in params) == 3 * hidden * (n_in + hidden + 1)
        assert all(p.requires_grad for p in params)


class TestGRUForward:
    def test_length_one_equals_single_step(self):
        rng = np.random.default_rng(1)
        layer = GRULayer(2, 3, rng)
        x = Tensor(rng.uniform(-1, 1, (1, 2)))
        h0 = Tensor(rng.uniform(-1, 1, (1, 3)))
        states = gru_forward(layer, [x], h0)
        assert states.data[0].shape == (1, 3)
        np.testing.assert_allclose(states.data[0][0], oracle_gru_step(PerGate(layer), x, h0).data[0], **STACKED_TOLERANCE)

    def test_zero_params_zero_outputs(self):
        layer = zeroed_gru(1, 4)
        xs = [Tensor([[float(i)]]) for i in range(5)]
        states = gru_forward(layer, xs, Tensor(np.zeros((1, 4))))
        assert np.array_equal(states.data[0], np.zeros((5, 4)))

    def test_output_length_matches_input(self):
        rng = np.random.default_rng(2)
        layer = GRULayer(2, 3, rng)
        for n in (1, 4, 9):
            xs = [Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(n)]
            assert gru_forward(layer, xs, Tensor(np.zeros((1, 3)))).data[0].shape == (n, 3)
            batched = [Tensor(rng.uniform(-1, 1, (5, 2))) for _ in range(n)]
            assert gru_forward(layer, batched, Tensor(np.zeros((5, 3)))).shape == (5, n, 3)

    def test_matches_manual_step_composition_bit_exactly(self):
        rng = np.random.default_rng(3)
        layer = GRULayer(3, 4, rng)
        xs = [Tensor(rng.uniform(-1, 1, (1, 3))) for _ in range(6)]
        h0 = Tensor(rng.uniform(-1, 1, (1, 4)))
        states = gru_forward(layer, xs, h0)
        h = h0
        for x, state in zip(xs, states.data[0]):
            h = Tensor(gru_forward(layer, [x], h).data[:, 0])
            assert np.array_equal(state, h.data[0])

    def test_empty_sequence_rejected(self):
        layer = zeroed_gru(1, 1)
        with pytest.raises(ValueError):
            gru_forward(layer, [], Tensor(np.zeros((1, 1))))


class TestSaturatedGates:
    """Pre-activations far past ±710, where e^-a overflows or underflows:
    the gates are exactly 0 and 1 and nothing warns, forward and backward."""

    @pytest.mark.parametrize("errors", ["raise", "warn"])
    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    def test_gates_are_exactly_0_and_1_and_nothing_warns(self, taped, errors):
        self.check(taped, errors, final=False)

    @pytest.mark.parametrize("errors", ["raise", "warn"])
    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    def test_final_state_mode_is_exact_and_nothing_warns(self, taped, errors):
        self.check(taped, errors, final=True)

    @staticmethod
    def check(taped, errors, final):
        # pytest's filterwarnings = error turns a "warn" into a failure too
        rng = np.random.default_rng(60)
        batch, n_in, hidden, n_steps = 4, 3, 6, 5
        layer = GRULayer(n_in, hidden, rng)
        z = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        cand = np.array([1.0, 1.0, -1.0, -1.0, -1.0, 1.0])
        # on a ones input each gate's input term is ±1000; the Glorot state
        # terms add at most 6*0.71 and the biases are zero. W's row blocks
        # are z, r and the candidate
        signs = np.concatenate((2 * z - 1, rng.choice([-1.0, 1.0], hidden), cand))
        layer.W.data[:] = signs[:, None] * (1000.0 / n_in)
        xs = [Tensor(np.ones((batch, n_in)), requires_grad=True) for _ in range(n_steps)]
        # dyadic states, so h + z*(cand - h) is exact
        h0 = Tensor(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], (batch, hidden)), requires_grad=True)
        want = np.where(z == 1.0, cand, h0.data)
        with np.errstate(all=errors):
            if taped:
                zero_grads([*layer.parameters(), *xs, h0])
                with Tape() as tape:
                    states = gru_forward(layer, xs, h0, final)
                    backward(tape, sum_all(states))
            else:
                states = gru_forward(layer, xs, h0, final)
        if final:
            assert np.array_equal(states.data, want)
        else:
            assert all(np.array_equal(states.data[:, t], want) for t in range(n_steps))
        if taped:
            grads = [t.grad for t in (*layer.parameters(), *xs, h0)]
            assert all(np.all(np.isfinite(g)) for g in grads)
            # d(sum of states)/dh0 counts the states it reaches where z is 0, and nothing else
            reached = 1 if final else n_steps
            assert np.array_equal(h0.grad, np.broadcast_to((1.0 - z) * reached, h0.shape))


def oracle_per_gate(layer, xs, h0):
    """The GRU unrolled as per-gate tape records, its states stacked to [B, T, H]."""
    h, outs = h0, []
    for x in xs:
        h = oracle_gru_step(layer, x, h)
        outs.append(h)
    return oracle_stack_steps(outs)


def gru_grid(test):
    """One and six steps, distinct and shared inputs, a state with and
    without a gradient, and three batch shapes; ±1.5-uniform weights."""
    test = pytest.mark.parametrize("n_steps", [1, 6], ids=["gru_step", "gru_forward"])(test)
    test = pytest.mark.parametrize("shared_x", [False, True])(test)
    test = pytest.mark.parametrize("h_requires_grad", [True, False])(test)
    # the bench-sized case runs numpy's in-place tanh at full SIMD width;
    # one input feature fills the operand's x rows with a single row
    shapes = [(1, 5, 7), (4, 5, 7), (4, 1, 7), (100, 50, 50)]
    return pytest.mark.parametrize(("batch", "n_in", "hidden"), shapes, ids=["1", "4", "4x1x7", "100x50x50"])(test)


# The fused kernel's GEMMs sum in another order than the oracles' per-gate
# and split ones; states and gradients have differed by at most 1e-13.
STACKED_TOLERANCE = {"rtol": 1e-12, "atol": 1e-12}


class TestGRUStepOracle:
    """The one-record kernels against the per-gate composition: the in-place
    oracle keeps its bits forward and backward, and the fused kernel agrees
    with it, with the per-gate composition and with the split-GEMM kernel
    to STACKED_TOLERANCE."""

    @staticmethod
    def unroll(forward, layer, xs, h0, proj):
        """States, and the gradients of W, U, b and the distinct inputs; an
        per-gate oracle runs on the per-gate views and its nine gradients are
        stacked."""
        inputs = list({id(t): t for t in [*xs, h0]}.values())
        cell = layer if forward in (gru_forward, oracle_gru_split) else PerGate(layer)
        zero_grads(cell.parameters() + inputs)
        with Tape() as tape:
            states = forward(cell, xs, h0)
            backward(tape, sum_all(mul(states, proj)))
        params = [p.grad for p in layer.parameters()] if cell is layer else cell.stacked_grads()
        return states.data, params + [t.grad for t in inputs]

    @staticmethod
    def grid_case(batch, n_in, hidden, h_requires_grad, shared_x, n_steps):
        rng = np.random.default_rng(50)
        layer = GRULayer(n_in, hidden, rng)
        # filled gate by gate, W_z, U_z, b_z, W_r, ..., through the row-block views
        for p in PerGate(layer).parameters():
            p.data[:] = rng.uniform(-1.5, 1.5, p.shape)
        if shared_x:
            xs = [Tensor(rng.uniform(-2, 2, (batch, n_in)), requires_grad=True)] * n_steps
        else:
            xs = [Tensor(rng.uniform(-2, 2, (batch, n_in)), requires_grad=True) for _ in range(n_steps)]
        h0 = Tensor(rng.uniform(-1, 1, (batch, hidden)), requires_grad=h_requires_grad)
        proj = Tensor(rng.uniform(-1, 1, (batch, n_steps, hidden)))
        return layer, xs, h0, proj

    def assert_matches_both_oracles(self, *case):
        states, grads = self.unroll(gru_forward, *case)
        for oracle in (oracle_gru_inplace, oracle_per_gate, oracle_gru_split):
            want_states, want_grads = self.unroll(oracle, *case)
            np.testing.assert_allclose(states, want_states, **STACKED_TOLERANCE)
            for got, want in zip(grads, want_grads):
                assert (got is None) == (want is None)
                if want is not None:
                    np.testing.assert_allclose(got, want, **STACKED_TOLERANCE)

    @gru_grid
    def test_bit_identical_to_per_gate_ops(self, batch, n_in, hidden, h_requires_grad, shared_x, n_steps):
        case = self.grid_case(batch, n_in, hidden, h_requires_grad, shared_x, n_steps)
        states, grads = self.unroll(oracle_gru_inplace, *case)
        want_states, want_grads = self.unroll(oracle_per_gate, *case)
        assert np.array_equal(states, want_states)
        assert (grads[-1] is None) == (not h_requires_grad)
        for got, want in zip(grads, want_grads):
            assert (got is None and want is None) or np.array_equal(got, want)

    @gru_grid
    def test_stacked_kernel_matches_both_oracles(self, batch, n_in, hidden, h_requires_grad, shared_x, n_steps):
        self.assert_matches_both_oracles(*self.grid_case(batch, n_in, hidden, h_requires_grad, shared_x, n_steps))

    # paper's encoder and the λ = 1 raes decoder take one feature; paper
    # validates on a batch of 25
    @pytest.mark.parametrize(
        ("batch", "n_in", "hidden"),
        [(100, 4, 200), (100, 200, 200), (100, 1, 200), (25, 1, 200)],
        ids=["100x4x200", "100x200x200", "100x1x200", "25x1x200"],
    )
    def test_stacked_kernel_matches_both_oracles_over_50_bench_sized_steps(self, batch, n_in, hidden):
        # Glorot weights: the grid's ±1.5-uniform ones diverge over 50 steps
        rng = np.random.default_rng(53)
        layer = GRULayer(n_in, hidden, rng)
        xs = [Tensor(rng.uniform(-1, 1, (batch, n_in)), requires_grad=True) for _ in range(50)]
        h0 = Tensor(rng.uniform(-1, 1, (batch, hidden)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, (batch, 50, hidden)))
        self.assert_matches_both_oracles(layer, xs, h0, proj)

    @pytest.mark.parametrize("shared_x", [False, True])
    def test_leaves_inputs_parameters_and_upstream_gradient_unchanged(self, shared_x):
        # the step works in place on its own buffers only
        rng = np.random.default_rng(52)
        layer = GRULayer(3, 5, rng)
        if shared_x:
            xs = [Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)] * 4
        else:
            xs = [Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True) for _ in range(4)]
        h0 = Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        upstream = rng.uniform(-1, 1, (4, 4, 5))
        arrays = [t.data for t in [*xs, h0, *layer.parameters()]] + [upstream]
        before = [a.tobytes() for a in arrays]
        with Tape() as tape:
            states = gru_forward(layer, xs, h0)

            def route(g, slot=states.slot):
                slot.grad = upstream

            backward(tape, record_op("route", np.zeros(()), (states,), route))
        assert h0.grad is not None and all(x.grad is not None for x in xs)
        assert [a.tobytes() for a in arrays] == before

    def test_one_tape_record_per_layer(self):
        rng = np.random.default_rng(51)
        layer = GRULayer(2, 3, rng)
        x = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        with Tape() as tape:
            gru_forward(layer, [x] * 5, Tensor(np.zeros((4, 3))))
        assert tape.op_names() == ["gru_forward"]


class TestGRUFinalState:
    """The final-state mode is the last state of the whole sequence, byte for
    byte: its output and every gradient (W, U, b, each step, h0) equal those
    of ``unstack_steps(gru_forward(...))[-1]``, with and without a tape."""

    @staticmethod
    def last_state(final, taped, layer, xs, h0, proj):
        """The last state's bytes and, under a tape, the gradients of W, U, b
        and the distinct inputs, None where an input takes none."""
        inputs = list({id(t): t for t in [*xs, h0]}.values())
        zero_grads(layer.parameters() + inputs)

        def forward():
            return gru_forward(layer, xs, h0, True) if final else unstack_steps(gru_forward(layer, xs, h0))[-1]

        if not taped:
            return [forward().data]
        with Tape() as tape:
            out = forward()
            backward(tape, sum_all(mul(out, proj)))
        return [out.data] + [t.grad for t in layer.parameters() + inputs]

    def assert_bytes_equal(self, taped, layer, xs, h0, proj):
        got = self.last_state(True, taped, layer, xs, h0, proj)
        want = self.last_state(False, taped, layer, xs, h0, proj)
        for a, b in zip(got, want, strict=True):
            assert (a is None) == (b is None)
            if b is not None:
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("taped", [True, False], ids=["tape", "no-tape"])
    @gru_grid
    def test_bytes_equal_the_last_state_of_the_sequence(self, batch, n_in, hidden, h_requires_grad, shared_x, n_steps, taped):
        layer, xs, h0, proj = TestGRUStepOracle.grid_case(batch, n_in, hidden, h_requires_grad, shared_x, n_steps)
        self.assert_bytes_equal(taped, layer, xs, h0, Tensor(proj.data[:, -1]))

    @pytest.mark.parametrize("taped", [True, False], ids=["tape", "no-tape"])
    def test_bytes_equal_over_50_encoder_steps(self, taped):
        # the tiny-f4-T50 encoder's shape, Glorot weights
        rng = np.random.default_rng(54)
        layer = GRULayer(4, 50, rng)
        xs = [Tensor(rng.uniform(-1, 1, (100, 4)), requires_grad=True) for _ in range(50)]
        h0 = Tensor(rng.uniform(-1, 1, (100, 50)), requires_grad=True)
        self.assert_bytes_equal(taped, layer, xs, h0, Tensor(rng.uniform(-1, 1, (100, 50))))


class TestConv1D:
    def test_hand_case(self):
        layer = Conv1DLayer(1, 1, 2, np.random.default_rng(0))
        layer.w.data[:] = 1.0
        layer.b.data[:] = 0.0
        out = conv1d_forward(layer, Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]])))
        assert out.data[0].tolist() == [[3.0], [5.0], [7.0]]

    def test_size_one_kernel_is_identity(self):
        layer = Conv1DLayer(1, 1, 1, np.random.default_rng(0))
        layer.w.data[:] = 1.0
        layer.b.data[:] = 0.0
        seq = np.array([[0.5], [-1.0], [2.0]])
        out = conv1d_forward(layer, Tensor(seq[None]))
        assert np.array_equal(out.data[0], seq)

    def test_matches_naive_oracle_bit_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            channels = int(rng.integers(1, 4))
            kernel = int(rng.integers(1, 5))
            filters = int(rng.integers(1, 5))
            length = int(rng.integers(kernel, 17))
            layer = Conv1DLayer(channels, filters, kernel, rng)
            layer.b.data[:] = rng.uniform(-1, 1, filters)
            x = rng.uniform(-1, 1, (length, channels))
            out = conv1d_forward(layer, Tensor(x[None]))
            assert np.array_equal(out.data[0], naive_conv1d(x, layer.w.data, layer.b.data))

    def test_batched_matches_per_sequence(self):
        rng = np.random.default_rng(9)
        layer = Conv1DLayer(2, 3, 2, rng)
        batch = rng.uniform(-1, 1, (4, 6, 2))
        out = conv1d_forward(layer, Tensor(batch))
        for i in range(4):
            single = conv1d_forward(layer, Tensor(batch[i][None]))
            assert np.array_equal(out.data[i], single.data[0])

    def test_short_sequence_rejected(self):
        layer = Conv1DLayer(1, 1, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="2.*3"):
            conv1d_forward(layer, Tensor(np.zeros((1, 2, 1))))

    def test_output_length_formula(self):
        rng = np.random.default_rng(8)
        for kernel, length in [(1, 1), (2, 2), (3, 7), (4, 16)]:
            layer = Conv1DLayer(1, 2, kernel, rng)
            out = conv1d_forward(layer, Tensor(rng.uniform(-1, 1, (1, length, 1))))
            assert out.data[0].shape == (length - kernel + 1, 2)


class TestMaxPool:
    def test_hand_case_drops_remainder(self):
        out = maxpool1d_forward(MaxPool1D(2, 2), Tensor(np.array([[[3.0], [5.0], [7.0]]])))
        assert out.data[0].tolist() == [[5.0]]

    def test_pool_one_is_identity(self):
        seq = np.array([[1.0, 4.0], [-2.0, 0.5], [3.0, 3.0]])
        out = maxpool1d_forward(MaxPool1D(1, 1), Tensor(seq[None]))
        assert np.array_equal(out.data[0], seq)

    def test_constant_sequence(self):
        out = maxpool1d_forward(MaxPool1D(3, 2), Tensor(np.full((1, 8, 2), 0.7)))
        assert out.data[0].shape == ((8 - 3) // 2 + 1, 2)
        assert np.all(out.data == 0.7)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pool = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            channels = int(rng.integers(1, 4))
            length = int(rng.integers(pool, 16))
            x = rng.uniform(-1, 1, (length, channels))
            out = maxpool1d_forward(MaxPool1D(pool, stride), Tensor(x[None]))
            assert np.array_equal(out.data[0], naive_maxpool(x, pool, stride))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_running_max_matches_window_argmax_oracle(self, batch):
        rng = np.random.default_rng(22 if batch == 1 else 23)
        # 300 small pools, then pools above 256, whose window offsets need uint16
        for low, high in [(1, 5)] * 300 + [(257, 512)] * 10:
            pool = int(rng.integers(low, high))
            stride = int(rng.integers(1, 6))
            length = int(rng.integers(pool, max(18, pool + 14)))
            shape = (batch, length, int(rng.integers(1, 4)))
            if pool > 256:
                # a random walk puts many window maxima past offset 255
                x = np.cumsum(rng.uniform(-1, 1, shape), axis=1)
            else:
                # few distinct values (signed zeros included) make ties common
                x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=shape)
            if rng.random() < 0.5:
                x[rng.random(shape) < 0.2] = np.nan
            out_len = (length - pool) // stride + 1
            g = rng.uniform(-1, 1, (shape[0], out_len, shape[2]))
            want_out, want_grad = oracle_maxpool(x, g, pool, stride)
            seq = Tensor(x, requires_grad=True)
            with Tape() as tape:
                out = maxpool1d_forward(MaxPool1D(pool, stride), seq)
                backward(tape, sum_all(mul(out, Tensor(g))))
            # same bits: NaNs and the sign of zero included
            assert out.shape == want_out.shape and out.data.tobytes() == want_out.tobytes()
            assert np.array_equal(out.data, want_out, equal_nan=True)
            assert seq.grad.tobytes() == want_grad.tobytes()

    def test_taped_and_untaped_calls_agree_and_only_a_gradient_records(self):
        # the argmax is built only under a tape for an input that requires grad
        rng = np.random.default_rng(24)
        for _ in range(200):
            pool = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 6))
            shape = (3, int(rng.integers(pool, 18)), int(rng.integers(1, 4)))
            x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=shape)
            x[rng.random(shape) < 0.2] = np.nan
            layer = MaxPool1D(pool, stride)
            untaped = maxpool1d_forward(layer, Tensor(x))
            with Tape() as tape:
                no_grad = maxpool1d_forward(layer, Tensor(x))
            assert len(tape) == 0 and not no_grad.requires_grad and not untaped.requires_grad
            with Tape() as tape:
                taped = maxpool1d_forward(layer, Tensor(x, requires_grad=True))
            assert tape.op_names() == ["maxpool1d"]
            assert untaped.data.tobytes() == no_grad.data.tobytes() == taped.data.tobytes()

    def test_gradient_routes_to_first_argmax_on_ties(self):
        seq = Tensor(np.array([[[2.0], [2.0], [1.0], [1.0]]]), requires_grad=True)
        with Tape() as tape:
            out = maxpool1d_forward(MaxPool1D(2, 2), seq)
            backward(tape, sum_all(out))
        assert seq.grad.ravel().tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_short_sequence_rejected(self):
        with pytest.raises(ShapeError):
            maxpool1d_forward(MaxPool1D(4, 1), Tensor(np.zeros((1, 3, 1))))

    def test_output_length_formula(self):
        rng = np.random.default_rng(13)
        for pool, stride, length in [(1, 1, 5), (2, 2, 9), (3, 1, 7), (2, 3, 10)]:
            out = maxpool1d_forward(MaxPool1D(pool, stride), Tensor(rng.uniform(-1, 1, (1, length, 2))))
            assert out.data[0].shape == ((length - pool) // stride + 1, 2)


# batch 100 runs the conv over several blocks and ends in a ragged one, except
# at length 200 with 200 filters, where a block is one sequence
BENCH_SHAPES = [(b, n, f, c) for b in (100, 7) for n in (50, 200) for f in (50, 200) for c in (1, 3)]


class TestContextKernelsAtBenchShapes:
    """raesc's conv and pool against the kernels they replaced, byte for byte,
    forward and backward, at the bench's batch, context and filter sizes."""

    @pytest.mark.parametrize("batch, length, filters, channels", BENCH_SHAPES)
    def test_conv_matches_unblocked_oracle(self, batch, length, filters, channels):
        rng = np.random.default_rng([batch, length, filters, channels])
        layer = Conv1DLayer(channels, filters, 3, rng)
        layer.b.data[:] = rng.uniform(-1, 1, filters)
        seq = Tensor(rng.uniform(-1, 1, (batch, length, channels)), requires_grad=True)
        g = rng.uniform(-1, 1, (batch, length - 2, filters))
        with Tape() as tape:
            out = conv1d_forward(layer, seq)
            backward(tape, sum_all(mul(out, Tensor(g))))
        got = [out.data, seq.grad, layer.w.grad, layer.b.grad]
        want = oracle_conv1d_unblocked(seq.data, layer.w.data, layer.b.data, g)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("pool, stride", [(2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("batch, length, channels", [(b, n - 2, f) for b, n, f, c in BENCH_SHAPES if c == 1])
    def test_pool_matches_where_oracle(self, batch, length, channels, pool, stride, swapped):
        rng = np.random.default_rng([batch, length, channels, pool, stride])
        shape = (batch, length, channels)
        # a tenth-step grid makes ties common; signed zeros and a few NaNs join it
        x = rng.integers(-20, 21, shape) / 10.0
        x[rng.random(shape) < 0.05] = -0.0
        x[rng.random(shape) < 0.001] = np.nan
        g = rng.uniform(-1, 1, (batch, (length - pool) // stride + 1, channels))
        seq = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = maxpool1d_forward(MaxPool1D(pool, stride), seq)
            if swapped:
                # as in raesc: the pool's gradient arrives transposed in memory
                loss = sum_all(mul(swap_last_axes(out), Tensor(g.swapaxes(1, 2).copy())))
            else:
                loss = sum_all(mul(out, Tensor(g)))
            backward(tape, loss)
        want_out, want_grad = oracle_maxpool_where(x, g, pool, stride)
        assert out.data.tobytes() == want_out.tobytes()
        assert seq.grad.tobytes() == want_grad.tobytes()


class TestTranspose:
    def test_definition(self):
        out = swap_last_axes(Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
        assert out.data.tolist() == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]

    def test_involution(self):
        x = np.random.default_rng(4).uniform(-1, 1, (3, 5))
        twice = swap_last_axes(swap_last_axes(Tensor(x)))
        assert np.array_equal(twice.data, x)

    def test_one_by_one(self):
        out = swap_last_axes(Tensor([[7.0]]))
        assert out.data.tolist() == [[7.0]]


class TestTimeDistributedDense:
    def test_identity_weights(self):
        layer = DenseLayer(3, 3, np.random.default_rng(0))
        layer.W.data[:] = np.eye(3)
        layer.b.data[:] = 0.0
        seq = Tensor([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]])
        assert np.array_equal(time_distributed_dense(layer, seq).data, seq.data)

    def test_zero_weights_constant_bias(self):
        layer = DenseLayer(2, 2, np.random.default_rng(0))
        layer.W.data[:] = 0.0
        layer.b.data[:] = [3.0, -1.0]
        out = time_distributed_dense(layer, Tensor(np.full((3, 4, 2), 5.0)))
        assert out.shape == (3, 4, 2)
        assert np.array_equal(out.data, np.broadcast_to([3.0, -1.0], (3, 4, 2)))

    def test_shared_weight_gradient_accumulates_over_steps(self):
        rng = np.random.default_rng(6)
        layer = DenseLayer(3, 2, rng)
        seq = Tensor(rng.uniform(-1, 1, (2, 4, 3)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, (2, 4, 2)))

        def build():
            return sum_all(mul(time_distributed_dense(layer, seq), proj))

        assert check_gradients(build, layer.parameters() + [seq]) < 1e-4

    def test_matches_per_step_linear(self):
        rng = np.random.default_rng(7)
        layer = DenseLayer(6, 3, rng)
        layer.b.data[:] = rng.uniform(-1, 1, 3)
        seq = Tensor(rng.uniform(-1, 1, (5, 8, 6)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, (5, 8, 3)))
        grads = []
        for one_record in (True, False):
            zero_grads(layer.parameters() + [seq])
            with Tape() as tape:
                if one_record:
                    out = time_distributed_dense(layer, seq)
                else:
                    steps = [linear(s, layer.W, layer.b) for s in unstack_steps(seq)]
                    out = oracle_stack_steps(steps)
                backward(tape, sum_all(mul(out, proj)))
            grads.append([out.data] + [t.grad for t in layer.parameters() + [seq]])
        for got, want in zip(*grads):
            assert np.allclose(got, want, rtol=1e-13, atol=1e-15)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params((4, 3), np.random.default_rng(77))
        b = init_params((4, 3), np.random.default_rng(77))
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = init_params((4, 3), np.random.default_rng(1))
        b = init_params((4, 3), np.random.default_rng(2))
        assert not np.array_equal(a.data, b.data)

    def test_within_glorot_bound(self):
        t = init_params((10, 20), np.random.default_rng(5))
        limit = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(t.data) <= limit)
        conv = init_params((4, 3, 2), np.random.default_rng(5))
        conv_limit = np.sqrt(6.0 / (3 * 2 + 3 * 4))
        assert np.all(np.abs(conv.data) <= conv_limit)

    def test_biases_zero(self):
        assert np.array_equal(init_params((7,), np.random.default_rng(0)).data, np.zeros(7))


class TestSizeChecks:
    """A size below 1 or a mismatched channel count fails when the layer is built or called, naming the value."""

    @pytest.mark.parametrize(
        "call,error,message",
        [
            pytest.param(
                lambda rng: init_params((1, 2, 3, 4), rng),
                ShapeError,
                r"^init_params supports 1-D to 3-D shapes, got \(1, 2, 3, 4\)$",
                id="init_params-4d",
            ),
            pytest.param(
                lambda rng: GRULayer(0, 3, rng), ValueError, r"^GRULayer sizes must be >= 1, got \(0, 3\)$", id="gru"
            ),
            pytest.param(
                lambda rng: DenseLayer(2, 0, rng), ValueError, r"^DenseLayer sizes must be >= 1, got \(2, 0\)$", id="dense"
            ),
            pytest.param(
                lambda rng: Conv1DLayer(1, 2, 0, rng), ValueError, r"^kernel_size must be >= 1, got 0$", id="conv-kernel"
            ),
            pytest.param(
                lambda rng: Conv1DLayer(1, 0, 2, rng), ValueError, r"^filters must be >= 1, got 0$", id="conv-filters"
            ),
            pytest.param(
                lambda rng: Conv1DLayer(0, 2, 2, rng), ValueError, r"^in_channels must be >= 1, got 0$", id="conv-channels"
            ),
            pytest.param(lambda rng: MaxPool1D(0, 1), ValueError, r"^pool_size must be >= 1, got 0$", id="pool-size"),
            pytest.param(lambda rng: MaxPool1D(2, 0), ValueError, r"^stride must be >= 1, got 0$", id="pool-stride"),
            pytest.param(
                lambda rng: conv1d_forward(Conv1DLayer(1, 2, 2, rng), Tensor(np.zeros((1, 5, 2)))),
                ShapeError,
                r"^conv1d_forward channels 2 do not match in_channels 1$",
                id="conv1d_forward-channels",
            ),
        ],
    )
    def test_message_names_the_value(self, call, error, message):
        with pytest.raises(error, match=message):
            call(np.random.default_rng(0))


class TestLayerGradients:
    """Finite-difference checks including degenerate shapes."""

    def test_gru_hidden_size_one(self):
        rng = np.random.default_rng(30)
        layer = GRULayer(2, 1, rng)
        xs = [Tensor(rng.uniform(-1, 1, (1, 2))) for _ in range(3)]
        proj = Tensor(rng.uniform(-1, 1, (1, 3, 1)))

        def build():
            return sum_all(mul(gru_forward(layer, xs, Tensor(np.zeros((1, 1)))), proj))

        assert check_gradients(build, layer.parameters()) < 1e-4

    # the operand's x rows: a single row, and more rows than the state's
    @pytest.mark.parametrize(("n_in", "hidden"), [(1, 3), (5, 2)], ids=["input-1", "input-wider-than-hidden"])
    def test_gru_input_sizes(self, n_in, hidden):
        rng = np.random.default_rng(33)
        layer = GRULayer(n_in, hidden, rng)
        layer.b.data[:] = rng.uniform(-0.5, 0.5, 3 * hidden)
        xs = [Tensor(rng.uniform(-1, 1, (2, n_in)), requires_grad=True) for _ in range(3)]
        h0 = Tensor(rng.uniform(-1, 1, (2, hidden)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, (2, 3, hidden)))

        def build():
            return sum_all(mul(gru_forward(layer, xs, h0), proj))

        assert check_gradients(build, layer.parameters() + xs + [h0]) < 1e-4

    def test_conv_length_equals_kernel(self):
        rng = np.random.default_rng(31)
        layer = Conv1DLayer(2, 3, 4, rng)
        layer.b.data[:] = rng.uniform(-0.5, 0.5, 3)
        seq = Tensor(rng.uniform(-1, 1, (1, 4, 2)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, (1, 1, 3)))

        def build():
            return sum_all(mul(conv1d_forward(layer, seq), proj))

        assert check_gradients(build, layer.parameters() + [seq]) < 1e-4

    def test_batched_conv_and_pool_gradients(self):
        rng = np.random.default_rng(32)
        layer = Conv1DLayer(1, 2, 2, rng)
        pool = MaxPool1D(2, 2)
        vals = np.linspace(-1.0, 1.0, 2 * 7)
        seq = Tensor(rng.permutation(vals).reshape(2, 7, 1), requires_grad=True)
        # conv [2,6,2] -> pool [2,3,2] -> transpose [2,2,3]
        proj = Tensor(rng.uniform(-1, 1, (2, 2, 3)))

        def build():
            hidden = maxpool1d_forward(pool, conv1d_forward(layer, seq))
            return sum_all(mul(swap_last_axes(hidden), proj))

        assert check_gradients(build, layer.parameters() + [seq]) < 1e-4
