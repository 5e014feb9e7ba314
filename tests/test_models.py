"""Context sizing, feasibility, the reshape/stretch transforms and full forwards."""

import tracemalloc

import numpy as np
import pytest

from raeslab.gradcheck import check_gradients
from raeslab.layers import Conv1DLayer, GRULayer, MaxPool1D, conv1d_forward, gru_forward, maxpool1d_forward
from raeslab.models import (
    RAE,
    RAES,
    RAESC,
    RAES_STRETCH,
    AutoencoderModel,
    ContextSpec,
    ModelVariant,
    _stretch_matrix,
    context_size_from_sigma,
    decoder_input_features,
    decoder_input_steps,
    encode_context,
    infeasibility_reason,
    raes_feasible,
    stretch_context,
    transform_context,
)
from raeslab.optim import mse_loss
from raeslab.tensor import ShapeError, Tape, Tensor, backward, mul, sum_all, unstack_steps, zero_grads

# the benchmark grid: features x sigma at sequence length 200
GRID_FEATURES = (1, 2, 4, 8)
GRID_SIGMAS = (0.25, 0.5, 1.0)
GRID_SEQ_LEN = 200
EXPECTED_INFEASIBLE = {(1, 0.25), (1, 0.5), (2, 0.25)}


class TestContextSize:
    def test_full_ratio_univariate(self):
        assert context_size_from_sigma(1.0, 1, 200) == 200

    def test_quarter_ratio_eight_features(self):
        assert context_size_from_sigma(0.25, 8, 200) == 400

    def test_quarter_ratio_univariate(self):
        assert context_size_from_sigma(0.25, 1, 200) == 50

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            context_size_from_sigma(0.0, 1, 200)
        with pytest.raises(ValueError):
            context_size_from_sigma(-0.5, 1, 200)
        with pytest.raises(ValueError):
            context_size_from_sigma(1.0, 0, 200)
        with pytest.raises(ValueError):
            context_size_from_sigma(0.001, 1, 10)  # rounds to an empty context
        with pytest.raises(ValueError, match="finite"):
            context_size_from_sigma(float("inf"), 1, 200)
        with pytest.raises(ValueError, match="finite"):
            context_size_from_sigma(float("nan"), 1, 200)


class TestFeasibility:
    def test_indivisible_is_absent(self):
        assert raes_feasible(50, 200) is None

    def test_equal_sizes(self):
        assert raes_feasible(200, 200) == 1

    def test_double_size(self):
        assert raes_feasible(400, 200) == 2

    def test_rejects_an_empty_size(self):
        with pytest.raises(ValueError, match=r"must be >= 1, got \(0, 5\)"):
            raes_feasible(0, 5)

    def test_grid_dash_pattern_matches_exactly(self):
        infeasible = set()
        for nf in GRID_FEATURES:
            for sigma in GRID_SIGMAS:
                n_c = context_size_from_sigma(sigma, nf, GRID_SEQ_LEN)
                if raes_feasible(n_c, GRID_SEQ_LEN) is None:
                    infeasible.add((nf, sigma))
        assert infeasible == EXPECTED_INFEASIBLE

    # the exact skip reasons summary.csv prints for a grid cell
    @pytest.mark.parametrize(
        "kind,n_features,sigma,reason",
        [
            (RAES, 1, 0.25, "context size 50 is not a multiple of sequence length 200"),
            (RAES_STRETCH, 1, 1.25, "stretch only upsamples: context size 250 exceeds sequence length 200"),
        ],
    )
    def test_skip_reason_text(self, kind, n_features, sigma, reason):
        spec = ContextSpec.autoencoding(GRID_SEQ_LEN, n_features, sigma)
        assert infeasibility_reason(ModelVariant(kind), spec) == reason

    def test_raesc_accepts_everything_above_minimum(self):
        variant = ModelVariant(RAESC)
        minimum = variant.kernel_size + variant.pool_size - 1
        for nf in GRID_FEATURES:
            for sigma in GRID_SIGMAS:
                spec = ContextSpec.autoencoding(GRID_SEQ_LEN, nf, sigma)
                assert spec.context_size >= minimum
                assert infeasibility_reason(variant, spec) is None


class TestTransformContext:
    def test_hand_case(self):
        out = transform_context(Tensor([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]), 3)
        assert out.data[0].tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_unit_chunks(self):
        out = transform_context(Tensor([[7.0, 8.0, 9.0]]), 3)
        assert out.data[0].tolist() == [[7.0], [8.0], [9.0]]

    def test_flatten_roundtrip_on_random_divisible_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            seq_len = int(rng.integers(1, 40))
            lam = int(rng.integers(1, 8))
            c = rng.uniform(-1, 1, seq_len * lam)
            out = transform_context(Tensor(c[None]), seq_len)
            assert out.data[0].shape == (seq_len, lam)
            assert np.array_equal(out.data.ravel(), c)

    def test_indivisible_rejected_with_constraint(self):
        with pytest.raises(ShapeError, match="multiple"):
            transform_context(Tensor(np.zeros((1, 50))), 200)

    def test_batched(self):
        c = np.arange(12.0).reshape(2, 6)
        out = transform_context(Tensor(c), 3)
        assert out.shape == (2, 3, 2)
        assert np.array_equal(out.data.reshape(2, 6), c)


def oracle_stretch_matrix(context_size, seq_len):
    """The per-step loop that models._stretch_matrix replaced: weight 1 - frac on the lower neighbour, frac on the upper."""
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


class TestStretchContext:
    def test_weights_match_the_loop_oracle_bit_for_bit(self):
        for seq_len in range(1, 65):
            for n in range(1, seq_len + 1):
                expected = oracle_stretch_matrix(n, seq_len).tobytes()
                assert _stretch_matrix(n, seq_len).tobytes() == expected, (n, seq_len)

    def test_midpoint_is_average(self):
        out = stretch_context(Tensor([[1.0, 3.0]]), 3)
        assert out.data[0].tolist() == [[1.0], [2.0], [3.0]]

    def test_equal_length_is_identity_column(self):
        c = np.array([0.3, -0.7, 1.0, 0.1])
        out = stretch_context(Tensor(c[None]), 4)
        assert np.allclose(out.data.ravel(), c, atol=1e-15)

    def test_single_point_is_constant(self):
        out = stretch_context(Tensor([[4.2]]), 5)
        assert np.all(out.data == 4.2)
        assert out.data[0].shape == (5, 1)

    def test_endpoints_preserved(self):
        rng = np.random.default_rng(2)
        for n_c, seq_len in [(2, 9), (3, 7), (5, 11), (7, 8)]:
            c = rng.uniform(-1, 1, n_c)
            out = stretch_context(Tensor(c[None]), seq_len).data.ravel()
            assert out[0] == c[0]
            assert out[-1] == c[-1]

    def test_downsampling_rejected(self):
        with pytest.raises(ShapeError, match="upsample"):
            stretch_context(Tensor(np.zeros((1, 5))), 3)

    def test_differentiable(self):
        c = Tensor(np.array([[0.5, -0.5, 1.0]]), requires_grad=True)

        def build():
            out = stretch_context(c, 7)
            return mse_loss(out, Tensor(np.zeros((1, 7, 1))))

        assert check_gradients(build, [c]) < 1e-4


def build_model(kind, seq_len=4, n_features=1, sigma=1.5, seed=0, **variant_kw):
    variant = ModelVariant(kind, **variant_kw)
    spec = ContextSpec.autoencoding(seq_len, n_features, sigma)
    rng = np.random.default_rng(seed)
    return AutoencoderModel.build(variant, spec, rng), spec


class TestForwards:
    @pytest.mark.parametrize(
        "kind,sigma,kw",
        [
            (RAE, 1.25, {}),
            (RAES, 2.0, {}),
            (RAESC, 1.5, {"kernel_size": 2, "pool_size": 2, "pool_stride": 2}),
            (RAES_STRETCH, 0.75, {}),
        ],
    )
    def test_output_shape_contract(self, kind, sigma, kw):
        model, spec = build_model(kind, sigma=sigma, **kw)
        rng = np.random.default_rng(1)
        single = model.forward(Tensor(rng.uniform(-1, 1, (1, spec.seq_len, spec.n_features))))
        assert single.data[0].shape == (spec.seq_len, spec.n_features)
        batched = model.forward(Tensor(rng.uniform(-1, 1, (5, spec.seq_len, spec.n_features))))
        assert batched.shape == (5, spec.seq_len, spec.n_features)

    def test_zero_parameters_give_zero_output(self):
        model, spec = build_model(RAE, sigma=1.25)
        for p in model.parameters():
            p.data[:] = 0.0
        out = model.forward(Tensor(np.random.default_rng(0).uniform(-1, 1, (1, spec.seq_len, 1))))
        assert np.array_equal(out.data, np.zeros(out.shape))

    def test_generic_parameters_give_live_gradients(self):
        for kind, sigma, kw in [
            (RAE, 1.25, {}),
            (RAES, 2.0, {}),
            (RAESC, 1.5, {"kernel_size": 2, "pool_size": 2}),
            (RAES_STRETCH, 0.75, {}),
        ]:
            model, spec = build_model(kind, sigma=sigma, seed=3, **kw)
            x = Tensor(np.random.default_rng(4).uniform(-1, 1, (1, spec.seq_len, 1)))
            with Tape() as tape:
                loss = mse_loss(model.forward(x), Tensor(np.ones((1, spec.seq_len, 1))))
                backward(tape, loss)
            total = sum(float(np.abs(p.grad).sum()) for p in model.parameters())
            assert total > 0.0, kind

    def test_raes_unit_chunk_steps_are_context_entries(self):
        model, spec = build_model(RAES, sigma=1.0)
        x = Tensor(np.random.default_rng(5).uniform(-1, 1, (1, spec.seq_len, 1)))
        context = encode_context(model, x)
        steps = decoder_input_steps(model, context)
        assert len(steps) == spec.seq_len
        for i, s in enumerate(steps):
            assert s.data[0].shape == (1,)
            assert s.data[0][0] == context.data[0][i]

    def test_raesc_decoder_input_shape_example(self):
        # context 50, kernel 3, pool 2/2 -> conv length 48, pooled 24, one step per filter
        variant = ModelVariant(RAESC, kernel_size=3, pool_size=2, pool_stride=2)
        spec = ContextSpec.autoencoding(seq_len=200, n_features=1, sigma=0.25)
        assert decoder_input_features(variant, spec) == 24
        model = AutoencoderModel.build(variant, spec, np.random.default_rng(0))
        context = Tensor(np.random.default_rng(1).uniform(-1, 1, (1, 50)))
        steps = decoder_input_steps(model, context)
        assert len(steps) == 200
        assert all(s.data[0].shape == (24,) for s in steps)

    def test_raesc_works_where_raes_cannot(self):
        spec = ContextSpec.autoencoding(seq_len=200, n_features=1, sigma=0.25)
        assert raes_feasible(spec.context_size, spec.seq_len) is None
        variant = ModelVariant(RAESC)
        model = AutoencoderModel.build(variant, spec, np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, (1, 200, 1)))
        assert model.forward(x).data[0].shape == (200, 1)

    def test_full_forward_backward_finite_differences(self):
        for kind, sigma, kw in [(RAES, 2.0, {}), (RAESC, 1.5, {"kernel_size": 2, "pool_size": 2})]:
            model, spec = build_model(kind, sigma=sigma, seed=6, **kw)
            x = Tensor(np.random.default_rng(7).uniform(-1, 1, (1, spec.seq_len, 1)))
            target = Tensor(np.random.default_rng(8).uniform(-1, 1, (1, spec.seq_len, 1)))

            def build():
                return mse_loss(model.forward(x), target)

            assert check_gradients(build, model.parameters()) < 1e-4


class TestTapeRecords:
    """One training batch's tape: one record per GRU layer, the encoder's
    returning the context itself, and one for the head."""

    @staticmethod
    def op_names(kind, seq_len, sigma, **kw):
        model, spec = build_model(kind, seq_len=seq_len, sigma=sigma, **kw)
        x = Tensor(np.random.default_rng(11).uniform(-1, 1, (3, seq_len, 1)))
        with Tape() as tape:
            mse_loss(model.forward(x), x)
        return tape.op_names()

    def test_ops_per_variant(self):
        head = ["gru_forward", "linear", "sub", "mul", "mean_all"]
        assert self.op_names(RAE, 8, 1.0) == ["gru_forward"] + head
        assert self.op_names(RAES, 8, 1.0) == ["gru_forward", "reshape", "unstack"] + head
        raesc = ["gru_forward", "reshape", "conv1d", "maxpool1d", "swap_last_axes", "unstack"] + head
        assert self.op_names(RAESC, 8, 1.0, kernel_size=2, pool_size=2) == raesc
        stretch = ["gru_forward", "matmul", "reshape", "unstack"] + head
        assert self.op_names(RAES_STRETCH, 8, 0.5) == stretch

    def test_rae_record_count_independent_of_length(self):
        # every variant, rae's count first; the others unstack their decoder input in one record
        for kind, sigma, kw, count in [
            (RAE, 1.0, {}, 6),
            (RAES, 1.0, {}, 8),
            (RAESC, 1.0, {"kernel_size": 2, "pool_size": 2}, 11),
            (RAES_STRETCH, 0.5, {}, 9),
        ]:
            assert len(self.op_names(kind, 8, sigma, **kw)) == len(self.op_names(kind, 16, sigma, **kw)) == count


class TestTapeFreeForward:
    """With no tape gru_forward reuses one gate block for every step; under a
    tape each step keeps its own. Both give the same bits."""

    @staticmethod
    def states(model, x):
        """Encoder states, decoder states and the reconstruction of one batch."""
        batch = x.shape[0]
        encoder = gru_forward(model.encoder, unstack_steps(x), Tensor(np.zeros((batch, model.encoder.hidden_size))))
        steps = decoder_input_steps(model, encode_context(model, x))
        decoder = gru_forward(model.decoder, steps, Tensor(np.zeros((batch, model.decoder.hidden_size))))
        return [encoder.data, decoder.data, model.forward(x).data]

    # the benchmark's cells as (seq_len, features, sigma, batch): tiny-f4-T50
    # and desk-f4-T50 with contexts of 50 and 200, and paper-f1-T200 at its
    # validation batch
    CELLS = {"tiny": (50, 4, 0.25, 100), "desk": (50, 4, 1.0, 100), "paper": (200, 1, 1.0, 25)}

    @pytest.mark.parametrize(
        ("kind", "cell"),
        [(kind, cell) for kind in (RAE, RAES, RAESC) for cell in ("tiny", "desk")]
        + [(RAES_STRETCH, "tiny")]
        + [(kind, "paper") for kind in (RAE, RAES, RAESC, RAES_STRETCH)],
        ids=lambda v: v,
    )
    def test_states_bit_identical_with_and_without_a_tape(self, kind, cell):
        seq_len, n_features, sigma, batch = self.CELLS[cell]
        model, _ = build_model(kind, seq_len=seq_len, n_features=n_features, sigma=sigma)
        x = Tensor(np.random.default_rng(14).uniform(-1, 1, (batch, seq_len, n_features)))
        untaped = self.states(model, x)
        with Tape():
            taped = self.states(model, x)
        assert all(np.array_equal(a, b) for a, b in zip(untaped, taped))


class TestBackwardMemory:
    """The forward keeps only what a backward reads, and the backward frees
    each record's saved activations once it has replayed.

    tracemalloc counts numpy's allocations exactly, so the figures repeat run
    to run. The bounds sit between a backward that keeps the whole tape to
    the end and this one; both figures are given per test.
    """

    @staticmethod
    def traced_backward(build_loss):
        """(memory at the end of the forward, held after backward, backward peak), in bytes."""
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = build_loss()
                forward_end, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                backward(tape, loss)
                held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return forward_end, held, peak

    def test_rae_batch_backward_frees_the_forward(self):
        # keeping the tape (its records and the GRU's gate blocks): 1.04x
        # held, peak 1.53 [B, T, H] arrays above the forward; freeing as it
        # goes: 0.04x and 1.33. The GRU backward reads the layer's stacked
        # weights as they are, so no weight copy counts in this peak
        batch, seq_len, hidden = 32, 100, 100
        model, _ = build_model(RAE, seq_len=seq_len, sigma=1.0)
        assert model.decoder.hidden_size == hidden
        x = Tensor(np.random.default_rng(12).uniform(-1, 1, (batch, seq_len, 1)))
        forward_end, held, peak = self.traced_backward(lambda: mse_loss(model.forward(x), x))
        state_bytes = batch * seq_len * hidden * 8
        assert held <= 0.25 * forward_end
        assert peak - forward_end <= 1.5 * state_bytes

    def test_raesc_forward_keeps_only_the_decoder_steps_and_argmax(self):
        # Above rae's forward, raesc keeps the decoder's T per-step input
        # copies ([B, pooled] each) and the max-pool argmax (one byte per
        # pooled value): 1.03x those bytes here. Keeping the conv, pool and
        # swap outputs as well reads 4.58x.
        batch, seq_len = 32, 100
        x = Tensor(np.random.default_rng(13).uniform(-1, 1, (batch, seq_len, 1)))
        forward_end = {}
        for kind in (RAE, RAESC):
            model, spec = build_model(kind, seq_len=seq_len, sigma=1.0)
            forward_end[kind] = self.traced_backward(lambda: mse_loss(model.forward(x), x))[0]
        pooled = decoder_input_features(model.variant, spec)
        kept = batch * seq_len * pooled * 8 + batch * seq_len * pooled
        assert forward_end[RAESC] - forward_end[RAE] <= 1.25 * kept

    def test_final_state_backward_peaks_one_state_sequence_below_take_step(self):
        # The encoder's shape: univariate steps that take no gradient. The
        # last unstacked state (the take_step path the test is named after)
        # zero-fills a [B, T, H] gradient for the states and
        # holds it through the GRU backward: its peak above the forward is
        # 1.22 such arrays, the final-state mode's 0.22 (the parameter
        # gradients and the step buffers). The two differ by that array less
        # about 12 KB: the unstack record's T step slots, which the forward
        # counts and its replay frees. Each backward starts from fresh
        # parameter gradients.
        batch, length, hidden = 32, 100, 100
        layer = GRULayer(1, hidden, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        steps = unstack_steps(Tensor(rng.uniform(-1, 1, (batch, length, 1))))
        h0 = Tensor(np.zeros((batch, hidden)))
        proj = Tensor(rng.uniform(-1, 1, (batch, hidden)))
        above = {}
        for final in (True, False):

            def loss():
                last = gru_forward(layer, steps, h0, True) if final else unstack_steps(gru_forward(layer, steps, h0))[-1]
                return sum_all(mul(last, proj))

            zero_grads(layer.parameters())
            forward_end, _, peak = self.traced_backward(loss)
            above[final] = peak - forward_end
        state_bytes = batch * length * hidden * 8
        assert above[True] <= 0.25 * state_bytes
        assert above[False] - above[True] >= 0.99 * state_bytes

    def test_gru_backward_frees_each_steps_gates_as_it_goes(self):
        # z, r and the candidate take three [B, T, H] arrays, the input
        # gradients the backward builds one more. Dropping each step's gates
        # once it has replayed peaks 1.29 arrays above the forward (sum_all's
        # gradient is one); keeping them to the end of the record peaks 2.46.
        batch, length, hidden = 16, 100, 40
        layer = GRULayer(hidden, hidden, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        xs = [Tensor(rng.uniform(-1, 1, (batch, hidden)), requires_grad=True) for _ in range(length)]
        h0 = Tensor(np.zeros((batch, hidden)))
        forward_end, _, peak = self.traced_backward(lambda: sum_all(gru_forward(layer, xs, h0)))
        assert peak - forward_end <= 1.5 * batch * length * hidden * 8


def _gru():
    return GRULayer(2, 3, np.random.default_rng(0))


def _rae():
    return build_model(RAE, seq_len=4, sigma=1.0)[0]


class TestBatchLayout:
    """Layers and models take [batch, length, channels] sequences and [batch, size] states and contexts only."""

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: gru_forward(_gru(), [Tensor(np.zeros((1, 2)))], Tensor(np.zeros(3))), id="gru-state"),
            pytest.param(lambda: gru_forward(_gru(), [Tensor(np.zeros(2))], Tensor(np.zeros((1, 3)))), id="gru-step"),
            pytest.param(
                lambda: conv1d_forward(Conv1DLayer(1, 2, 2, np.random.default_rng(0)), Tensor(np.zeros((5, 1)))),
                id="conv1d",
            ),
            pytest.param(lambda: maxpool1d_forward(MaxPool1D(2, 2), Tensor(np.zeros((5, 1)))), id="maxpool1d"),
            pytest.param(lambda: encode_context(_rae(), Tensor(np.zeros((4, 1)))), id="encode_context"),
            pytest.param(lambda: transform_context(Tensor(np.zeros(6)), 3), id="transform_context"),
            pytest.param(lambda: stretch_context(Tensor(np.zeros(2)), 3), id="stretch_context"),
        ],
    )
    def test_unbatched_input_is_a_shape_error(self, call):
        with pytest.raises(ShapeError, match="batch"):
            call()


class TestModelStructure:
    def test_encoder_hidden_is_context_size(self):
        model, spec = build_model(RAE, seq_len=6, sigma=1.5)
        assert model.encoder.hidden_size == spec.context_size == 9

    def test_raesc_filter_count_is_output_length(self):
        model, spec = build_model(RAESC, seq_len=5, sigma=2.0, kernel_size=2, pool_size=2)
        assert model.conv.filters == spec.seq_len == 5

    def test_decoder_hidden_defaults_to_context_size_and_is_overridable(self):
        model, spec = build_model(RAE, sigma=1.25)
        assert model.decoder.hidden_size == spec.context_size
        other = AutoencoderModel.build(
            ModelVariant(RAE), spec, np.random.default_rng(0), decoder_hidden=7
        )
        assert other.decoder.hidden_size == 7
        assert other.head.in_features == 7

    def test_pool_stride_defaults_to_pool_size(self):
        assert ModelVariant(RAESC, pool_size=3).pool_stride == 3
        assert ModelVariant(RAESC) == ModelVariant(RAESC, pool_stride=2)
        model, _ = build_model(RAESC, sigma=1.5, kernel_size=2, pool_size=3)
        assert model.pool.stride == 3

    def test_raes_requires_divisible_context(self):
        spec = ContextSpec.autoencoding(seq_len=4, n_features=1, sigma=1.25)
        with pytest.raises(ValueError, match="multiple"):
            AutoencoderModel.build(ModelVariant(RAES), spec, np.random.default_rng(0))

    def test_raesc_context_too_small_names_minimum(self):
        spec = ContextSpec.autoencoding(seq_len=3, n_features=1, sigma=1.0)
        variant = ModelVariant(RAESC, kernel_size=3, pool_size=2)
        with pytest.raises(ValueError, match="at least 4"):
            decoder_input_features(variant, spec)

    def test_same_seed_same_parameters_and_loss(self):
        for kind, sigma in [(RAE, 1.25), (RAES, 2.0), (RAESC, 1.5), (RAES_STRETCH, 0.75)]:
            a, spec = build_model(kind, sigma=sigma, seed=9, kernel_size=2, pool_size=2)
            b, _ = build_model(kind, sigma=sigma, seed=9, kernel_size=2, pool_size=2)
            for pa, pb in zip(a.parameters(), b.parameters()):
                assert np.array_equal(pa.data, pb.data)
            x = Tensor(np.random.default_rng(10).uniform(-1, 1, (1, spec.seq_len, 1)))
            la = mse_loss(a.forward(x), x)
            lb = mse_loss(b.forward(x), x)
            assert la.data == lb.data

    def test_parameter_names_are_qualified(self):
        model, _ = build_model(RAESC, sigma=1.5, kernel_size=2, pool_size=2)
        names = {p.name for p in model.parameters()}
        assert "encoder.W" in names
        assert "conv.w" in names
        assert "head.b" in names
