"""Autodiff core: op semantics, tape mechanics, gradient accumulation."""

import itertools
import weakref

import numpy as np
import pytest

from twins import add, mean_all, mul, project, sigmoid, sub, sum_all, tanh_op, unstack_steps

from raeslab.gradcheck import check_gradients
from raeslab.layers import MaxPool1D, maxpool1d_forward
from raeslab.optim import mse_loss
from raeslab.tensor import (
    GraphError,
    ShapeError,
    Tape,
    Tensor,
    _logistic_neg,
    accumulate_grad,
    active_tape,
    backward,
    linear,
    matmul,
    record_op,
    reshape,
    swap_last_axes,
    zero_grads,
)


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(matmul(a, eye).data, a.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero_annihilator(self):
        out = matmul(Tensor([[0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        assert out.data.tolist() == [[0.0]]

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def logistic(x):
    """The logistic function of ``x`` through ``_logistic_neg``, as ``gru_forward`` evaluates its gates."""
    return _logistic_neg(np.negative(np.asarray(x, dtype=np.float64)))


class TestSigmoid:
    def test_symmetry_point(self):
        assert logistic([0.0])[0] == 0.5

    def test_saturation_no_overflow(self):
        with np.errstate(over="raise"):
            out = logistic([40.0, 500.0, 1e6])
        assert np.all(np.abs(out - 1.0) < 1e-12)
        with np.errstate(over="raise"):
            low = logistic([-40.0, -500.0, -1e6])
        assert np.all(np.isfinite(low))

    def test_complement(self):
        x = np.linspace(-30.0, 30.0, 101)
        total = logistic(x) + logistic(-x)
        assert np.all(np.abs(total - 1.0) < 1e-12)

    def test_matches_logaddexp_form(self):
        # oracle: the earlier exp(-log(1 + e^-x)) evaluation of the same function
        rng = np.random.default_rng(3)
        x = np.concatenate([np.linspace(-800.0, 800.0, 16001), rng.normal(0.0, 5.0, 20000), rng.uniform(-40, 40, 20000)])
        with np.errstate(over="raise"):
            got = logistic(x)
        want = np.exp(-np.logaddexp(0.0, -x))
        assert np.max(np.abs(got - want)) <= 2.3e-16

    def test_relative_error_on_the_lower_tail(self):
        # (1 + tanh(x/2))/2 cancels here: 3e-4 relative error on [-30, -5),
        # every digit lost below -30
        x = np.linspace(-700.0, -5.0, 20001)
        got = logistic(x)
        want = np.exp(-np.logaddexp(0.0, -x))
        assert np.max(np.abs(got - want) / want) <= 1e-14


def oracle_take_step(t, i):
    """Step ``i`` along the second-to-last axis as its own ``step`` record, whose
    backward zero-fills ``t``'s gradient on first use and adds into the step:
    the scatter ``unstack_steps`` once recorded per step."""
    idx = (slice(None),) * (t.ndim - 2) + (i,)
    slot = t.slot

    def back(g):
        if slot.grad is None:
            slot.grad = np.zeros(slot.shape)
        slot.grad[idx] += g

    return record_op("step", t.data[idx], (t,), back)


def oracle_unstack(t):
    return [oracle_take_step(t, i) for i in range(t.shape[-2])]


class TestUnstackMatchesTakeStepOracle:
    """The ``unstack_steps`` twin's one record leaves the gradients of T
    ``oracle_take_step`` records, byte for byte, however many of its steps the
    loss reads."""

    @staticmethod
    def grads(split, shape, uses, other_consumer):
        """The gradients of ``x`` and of a bystander leaf after a loss that reads
        steps ``uses`` of ``split(x)`` (repeats allowed) and, with
        ``other_consumer``, ``x`` itself through an op recorded after the split,
        which replays first."""
        rng = np.random.default_rng(21)
        x = Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
        bystander = Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        projs = rng.uniform(-1, 1, (len(uses),) + shape[:-2] + shape[-1:])
        with Tape() as tape:
            steps = split(x)
            loss = sum_all(mul(bystander, bystander))
            for i, proj in zip(uses, projs):
                loss = add(loss, project(steps[i], proj))
            if other_consumer:
                loss = add(loss, project(x, rng.uniform(-1, 1, shape)))
            backward(tape, loss)
        assert all(s.grad is None for s in steps)
        return [None if t.grad is None else t.grad.tobytes() for t in (x, bystander)]

    @pytest.mark.parametrize("other_consumer", [False, True], ids=["alone", "other-consumer"])
    @pytest.mark.parametrize(
        "uses", [[0, 1, 2, 3, 4], [4, 1], [2, 2], []], ids=["every-step", "subset", "step-twice", "no-step"]
    )
    @pytest.mark.parametrize("shape", [(5, 3), (2, 5, 3), (2, 2, 5, 3)], ids=["2d", "3d", "4d"])
    def test_gradients_match_the_oracle_byte_for_byte(self, shape, uses, other_consumer):
        got = self.grads(unstack_steps, shape, uses, other_consumer)
        assert got == self.grads(oracle_unstack, shape, uses, other_consumer)
        assert got[1] is not None
        assert (got[0] is None) == (not uses and not other_consumer)

    def test_one_record_under_a_tape_and_none_without(self):
        x = Tensor(np.random.default_rng(22).uniform(-1, 1, (2, 5, 3)), requires_grad=True)
        untaped = unstack_steps(x)
        with Tape() as tape:
            constant = unstack_steps(Tensor(x.data))
            assert len(tape) == 0
            taped = unstack_steps(x)
        assert tape.op_names() == ["unstack"]
        assert not any(s.requires_grad for s in untaped + constant)
        assert all(s.requires_grad for s in taped)
        for steps in (untaped, constant, taped):
            assert [s.data.tobytes() for s in steps] == [x.data[:, i].tobytes() for i in range(5)]
            assert all(s.data.flags.c_contiguous for s in steps)


class TestBackward:
    def test_identity_base_case(self):
        x = Tensor(np.asarray(3.0), requires_grad=True)
        with Tape() as tape:
            loss = add(x, Tensor(0.0))
            backward(tape, loss)
        assert x.grad == np.asarray(1.0)

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(x, x))
            backward(tape, loss)
        assert x.grad.tolist() == [2.0, 4.0, 6.0]

    def test_fanout_accumulates(self):
        x = Tensor(np.asarray(5.0), requires_grad=True)
        with Tape() as tape:
            loss = add(x, x)
            backward(tape, loss)
        assert x.grad == np.asarray(2.0)

    def test_intermediate_grads_released_leaf_grads_kept(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, Tensor(3.0))
            loss = sum_all(mul(y, y))
            backward(tape, loss)
        assert y.grad is None
        assert loss.grad is None
        assert x.grad.tolist() == [18.0, -36.0, 54.0]

    def test_second_backward_on_spent_tape_raises(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 0.25, -1.5], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(tanh_op(mul(x, Tensor(3.0))), w))
            backward(tape, loss)
            grads = x.grad, w.grad
            first_x, first_w = x.grad.copy(), w.grad.copy()
            with pytest.raises(GraphError, match="spent tape"):
                backward(tape, loss)
        assert x.grad is grads[0] and w.grad is grads[1]
        assert np.array_equal(x.grad, first_x)
        assert np.array_equal(w.grad, first_w)
        assert loss.grad is None

    def test_op_names_survive_backward(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul(tanh_op(mul(x, Tensor(3.0))), x))
            before = tape.op_names()
            backward(tape, loss)
        assert tape.op_names() == before == ["mul", "tanh", "mul", "sum_all"]
        assert len(tape) == 4

    def test_replayed_closure_and_its_saved_array_are_freed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        saved = np.array([3.0, -4.0])
        ref = weakref.ref(saved)

        def back(g, saved=saved):
            accumulate_grad(x, g * saved)

        with Tape() as tape:
            loss = sum_all(record_op("scale", x.data * saved, (x,), back))
        del saved, back
        assert ref() is not None
        backward(tape, loss)
        assert ref() is None
        assert tape.op_names() == ["scale", "sum_all"]
        assert x.grad.tolist() == [3.0, -4.0]

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, Tensor(2.0))
            with pytest.raises(GraphError):
                backward(tape, y)

    def test_composition_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, 2), requires_grad=True)

        def build():
            return mean_all(mul(tanh_op(linear(x, w, b)), sigmoid(linear(x, w, b))))

        assert check_gradients(build, [x, w, b]) < 1e-4

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            x = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
            with Tape() as tape:
                loss = mean_all(mul(sigmoid(matmul(x, w)), tanh_op(x)))
                backward(tape, loss)
            return loss.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()


class TestTapeStack:
    def test_nested_tape_records_into_the_innermost_only(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as outer:
            mul(x, Tensor(2.0))
            with Tape() as inner:
                assert active_tape() is inner
                add(x, Tensor(1.0))
            assert active_tape() is outer
            sum_all(x)
        assert active_tape() is None
        assert outer.op_names() == ["mul", "sum_all"]
        assert inner.op_names() == ["add"]


class TestGradientAdoption:
    """A fresh gradient array becomes an input's first ``grad`` as it is; the
    gradients of distinct inputs never share a buffer."""

    CASES = {
        "add": (add, [(3, 4), (3, 4)]),
        "sub": (sub, [(3, 4), (3, 4)]),
        "mul": (mul, [(3, 4), (3, 4)]),
        "matmul": (matmul, [(3, 4), (4, 2)]),
        "linear": (linear, [(2, 3, 4), (5, 4), (5,)]),
        "mse_loss": (mse_loss, [(3, 4), (3, 4)]),
    }

    @pytest.mark.parametrize("op", sorted(CASES))
    def test_grads_share_no_memory_and_repeat_bit_for_bit(self, op):
        fn, shapes = self.CASES[op]
        rng = np.random.default_rng(31)
        inputs = [Tensor(rng.uniform(-2, 2, s), requires_grad=True) for s in shapes]
        g = rng.uniform(-1, 1, fn(*inputs).shape)

        def grads():
            zero_grads(inputs)
            with Tape() as tape:
                backward(tape, project(fn(*inputs), g))
            return [t.grad for t in inputs]

        first = grads()
        arrays = first + [g] + [t.data for t in inputs]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)
        snapshot = [a.copy() for a in first]
        second = grads()
        for before, a, b in zip(snapshot, first, second):
            assert not np.shares_memory(a, b)
            assert a.tobytes() == before.tobytes() == b.tobytes()

    def test_aliased_add_gives_exactly_twice_the_upstream_gradient(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        g = rng.uniform(-1, 1, (4, 3))
        with Tape() as tape:
            backward(tape, project(add(x, x), g))
        assert np.array_equal(x.grad, 2.0 * g)
        assert not np.shares_memory(x.grad, g)


class TestTapeHoldsGradientSlots:
    """An op whose backward does not read its input keeps only the input's
    gradient slot: once the caller drops the input inside an open tape, the
    input's array is freed, and the leaf gradients are the same bits as when
    every tensor stays alive."""

    CASES = {
        "add": add,
        "sub": sub,
        "reshape": lambda y, v: reshape(y, (6, 6)),
        "swap_last_axes": lambda y, v: swap_last_axes(y),
        "sum_all": lambda y, v: sum_all(y),
        "mean_all": lambda y, v: mean_all(y),
        "take_step": lambda y, v: oracle_take_step(y, 1),
        "unstack_steps": lambda y, v: unstack_steps(y)[1],
        "maxpool1d_forward": lambda y, v: maxpool1d_forward(MaxPool1D(2, 2), y),
    }

    @staticmethod
    def leaf_grads(op, drop):
        """Leaf gradients of ``op(x * c, v)``; with ``drop``, also whether the
        array of ``x * c`` was freed before the backward."""
        rng = np.random.default_rng(33)
        x = Tensor(rng.uniform(-2, 2, (2, 6, 3)), requires_grad=True)
        v = Tensor(rng.uniform(-2, 2, (2, 6, 3)), requires_grad=True)
        c = Tensor(rng.uniform(-2, 2, (2, 6, 3)))
        with Tape() as tape:
            y = mul(x, c)
            out = op(y, v)
            # the projection keeps its constant, not ``out``
            loss = project(out, rng.uniform(-1, 1, out.shape))
            freed = None
            if drop:
                # the output too: reshape's output is a view of its input
                ref = weakref.ref(y.data)
                del y, out
                freed = ref() is None
            backward(tape, loss)
        return freed, [t.grad.tobytes() for t in (x, v) if t.grad is not None]

    @pytest.mark.parametrize("op", sorted(CASES))
    def test_dropped_input_is_freed_and_leaf_grads_keep_their_bits(self, op):
        freed, grads = self.leaf_grads(self.CASES[op], drop=True)
        assert freed
        assert grads == self.leaf_grads(self.CASES[op], drop=False)[1]
        assert len(grads) == (2 if op in ("add", "sub") else 1)


class TestFiniteDifferencesPerOp:
    """Every differentiable op against central differences on random tensors."""

    @pytest.mark.parametrize("seed", range(5))
    def test_elementwise_and_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        m = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)

        # the elementwise ops are the tests' twins, which build their losses
        checks = [
            (lambda: sum_all(mul(add(a, b), sub(a, b))), [a, b]),
            (lambda: sum_all(matmul(add(a, Tensor(0.5)), m)), [a, m]),
            (lambda: mean_all(sigmoid(sub(Tensor(1.0), a))), [a]),
            (lambda: mean_all(tanh_op(mul(a, Tensor(3.0)))), [a]),
            (lambda: mse_loss(a, b), [a, b]),
        ]
        for build, tensors in checks:
            assert check_gradients(build, tensors) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_shape_ops(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True)
        proj = Tensor(rng.uniform(-1, 1, (3, 4)))

        def build_reshape():
            return project(reshape(a, (3, 4)), proj.data)

        def build_swap():
            return project(swap_last_axes(a), proj.data.reshape(6, 2))

        def build_unstack():
            first, second = unstack_steps(a)
            return mean_all(add(mul(first, first), mul(second, Tensor(proj.data.reshape(-1)[:6]))))

        for build in (build_reshape, build_swap, build_unstack):
            assert check_gradients(build, [a]) < 1e-4


class TestTensorInvariants:
    def test_flat_row_major_storage(self):
        t = Tensor(np.arange(6.0).reshape(2, 3)[::-1])
        assert t.data.flags.c_contiguous
        assert t.data.size == 6

    def test_reshape_is_metadata_only(self):
        t = Tensor(np.arange(6.0))
        r = reshape(t, (2, 3))
        assert r.data.base is t.data or r.data is t.data

    def test_values_finite_after_forward_backward(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(-1, 1, (5, 5)), requires_grad=True)
        with Tape() as tape:
            out = sigmoid(mul(matmul(x, x), Tensor(100.0)))
            loss = mean_all(out)
            backward(tape, loss)
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(x.grad))

    def test_unstack_scatters_gradient(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        with Tape() as tape:
            steps = unstack_steps(x)
            loss = sum_all(mul(steps[1], steps[1]))
            backward(tape, loss)
        expected = np.zeros((3, 2))
        expected[1] = 2.0 * x.data[1]
        assert np.array_equal(x.grad, expected)

    def test_take_step_scatters_gradient(self):
        x = Tensor(np.arange(12.0).reshape(2, 3, 2), requires_grad=True)
        with Tape() as tape:
            last = oracle_take_step(x, -1)
            backward(tape, sum_all(mul(last, last)))
        assert tape.op_names() == ["step", "mul", "sum_all"]
        expected = np.zeros((2, 3, 2))
        expected[:, -1] = 2.0 * x.data[:, -1]
        assert np.array_equal(x.grad, expected)

    def test_linear_acts_over_last_axis(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.uniform(-1, 1, (3, 4)))
        b = Tensor(rng.uniform(-1, 1, 3))
        x = rng.uniform(-1, 1, (2, 5, 4))
        for xi in (x[0, 0], x[0, :1], x[0], x):
            out = linear(Tensor(xi), w, b)
            assert out.shape == xi.shape[:-1] + (3,)
            assert np.allclose(out.data, xi @ w.data.T + b.data, rtol=1e-14, atol=1e-15)
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 3))), w, b)

    def test_tape_order_is_insertion_order(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            y = mul(x, Tensor(2.0))
            z = add(y, Tensor(1.0))
            sum_all(z)
        assert tape.op_names() == ["mul", "add", "sum_all"]


class TestOperandShapeErrors:
    """An operand of the wrong rank or size raises a ShapeError that names it."""

    @pytest.mark.parametrize(
        "call,message",
        [
            pytest.param(
                lambda: matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2)))),
                r"^matmul needs 2-D operands, got \(3,\) and \(3, 2\)$",
                id="matmul-1d",
            ),
            pytest.param(
                lambda: linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)), Tensor(np.zeros(3))),
                r"^linear weight must be 2-D \[out, in\], got \(3,\)$",
                id="linear-weight-1d",
            ),
            pytest.param(
                lambda: linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))),
                r"^linear bias \(4,\) does not match weight \(3, 4\)$",
                id="linear-bias",
            ),
            pytest.param(
                lambda: reshape(Tensor(np.zeros(6)), (4,)), r"^cannot reshape \(6,\) to \(4,\)$", id="reshape-size"
            ),
            pytest.param(
                lambda: swap_last_axes(Tensor(np.zeros(3))),
                r"^swap_last_axes needs at least 2 axes, got shape \(3,\)$",
                id="swap_last_axes-1d",
            ),
        ],
    )
    def test_message_names_the_operand(self, call, message):
        with pytest.raises(ShapeError, match=message):
            call()
