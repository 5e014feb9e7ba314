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
    accumulate_grad,
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


def oracle_stack_steps(steps):
    """Per-step states [B, H] stacked to [B, T, H] as one tape record."""
    axis = steps[0].ndim - 1
    out = np.stack([s.data for s in steps], axis=axis)

    def back(g):
        for i, s in enumerate(steps):
            if s.requires_grad:
                accumulate_grad(s, np.take(g, i, axis=axis))

    return record_op("stack_steps", out, tuple(steps), back)


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


class TestGRUForward:
    def test_length_one_equals_single_step(self):
        rng = np.random.default_rng(1)
        layer = GRULayer(2, 3, rng)
        x = Tensor(rng.uniform(-1, 1, (1, 2)))
        h0 = Tensor(rng.uniform(-1, 1, (1, 3)))
        states = gru_forward(layer, [x], h0)
        assert states.data[0].shape == (1, 3)
        assert np.array_equal(states.data[0][0], oracle_gru_step(layer, x, h0).data[0])

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


class TestGRUStepOracle:
    """The one-record kernel against the per-gate composition: same bits forward and backward."""

    @staticmethod
    def unroll(kernel, layer, xs, h0, proj):
        inputs = list({id(t): t for t in [*xs, h0]}.values())
        tensors = layer.parameters() + inputs
        zero_grads(tensors)
        with Tape() as tape:
            if kernel:
                states = gru_forward(layer, xs, h0)
            else:
                h, outs = h0, []
                for x in xs:
                    h = oracle_gru_step(layer, x, h)
                    outs.append(h)
                states = oracle_stack_steps(outs)
            backward(tape, sum_all(mul(states, proj)))
        return states.data, [t.grad for t in tensors]

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("h_requires_grad", [True, False])
    @pytest.mark.parametrize("shared_x", [False, True])
    # one step is the GRU cell itself; six steps unroll a sequence
    @pytest.mark.parametrize("n_steps", [1, 6], ids=["gru_step", "gru_forward"])
    def test_bit_identical_to_per_gate_ops(self, batch, h_requires_grad, shared_x, n_steps):
        rng = np.random.default_rng(50)
        layer = GRULayer(5, 7, rng)
        for p in layer.parameters():
            p.data[:] = rng.uniform(-1.5, 1.5, p.shape)
        if shared_x:
            xs = [Tensor(rng.uniform(-2, 2, (batch, 5)), requires_grad=True)] * n_steps
        else:
            xs = [Tensor(rng.uniform(-2, 2, (batch, 5)), requires_grad=True) for _ in range(n_steps)]
        h0 = Tensor(rng.uniform(-1, 1, (batch, 7)), requires_grad=h_requires_grad)
        proj = Tensor(rng.uniform(-1, 1, (batch, n_steps, 7)))
        states, grads = self.unroll(True, layer, xs, h0, proj)
        want_states, want_grads = self.unroll(False, layer, xs, h0, proj)
        assert np.array_equal(states, want_states)
        assert (grads[-1] is None) == (not h_requires_grad)
        for got, want in zip(grads, want_grads):
            assert (got is None and want is None) or np.array_equal(got, want)

    def test_one_tape_record_per_layer(self):
        rng = np.random.default_rng(51)
        layer = GRULayer(2, 3, rng)
        x = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        with Tape() as tape:
            gru_forward(layer, [x] * 5, Tensor(np.zeros((4, 3))))
        assert tape.op_names() == ["gru_forward"]


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
        for _ in range(300):
            pool = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 6))
            length = int(rng.integers(pool, 18))
            shape = (batch, length, int(rng.integers(1, 4)))
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
            assert np.array_equal(seq.grad, want_grad)

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
