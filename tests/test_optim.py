"""MSE loss values and Adam update behaviour."""

import numpy as np
import pytest

from raeslab.optim import AdamState, TrainingError, mse_loss
from raeslab.tensor import ShapeError, Tape, Tensor, backward, mul, sum_all


class TestMSELoss:
    def test_identical_inputs(self):
        assert mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0])).data == 0.0

    def test_unit_deviation(self):
        assert mse_loss(Tensor([1.0, 1.0]), Tensor([0.0, 0.0])).data == 1.0

    def test_hand_case(self):
        assert mse_loss(Tensor([1.0, 3.0]), Tensor([0.0, 0.0])).data == 5.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_gradient(self):
        p = Tensor([1.0, 3.0], requires_grad=True)
        with Tape() as tape:
            backward(tape, mse_loss(p, Tensor([0.0, 0.0])))
        # d/dp mean((p-t)^2) = 2 (p-t) / n
        assert np.allclose(p.grad, [1.0, 3.0])


def fresh_param(values):
    return Tensor(np.asarray(values, dtype=float), requires_grad=True, name="theta")


class TestAdam:
    def test_first_step_magnitude_close_to_lr(self):
        p = fresh_param([0.0])
        state = AdamState([p])
        p.grad = np.array([1.0])
        state.step()
        delta = p.data[0] - 0.0
        assert abs(delta + state.lr) < 1e-8

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = fresh_param([0.7, -0.3])
        state = AdamState([p])
        p.grad = np.zeros(2)
        state.step()
        assert p.data.tolist() == [0.7, -0.3]

    @pytest.mark.parametrize("scale", [0.5, 3.0, 100.0])
    def test_first_step_is_sign_following(self, scale):
        p = fresh_param([0.0])
        state = AdamState([p])
        p.grad = np.array([scale])
        state.step()
        assert abs(abs(p.data[0]) - state.lr) < 1e-6
        assert p.data[0] < 0.0

    def test_quadratic_convergence(self):
        # On f(theta) = theta^2 from theta=1 at defaults, textbook Adam first
        # brings |theta| below 0.01 at step 2203 exactly (the near-zero
        # oscillation tail decays slowly); verified against torch.optim.Adam.
        theta = fresh_param([1.0])
        state = AdamState([theta])
        first_below = None
        for t in range(1, 2204):
            with Tape() as tape:
                theta.grad = None
                backward(tape, sum_all(mul(theta, theta)))
            state.step()
            if abs(theta.data[0]) < 0.01:
                first_below = t
                break
        assert first_below == 2203

    def test_moments_bounded_by_gradients(self):
        rng = np.random.default_rng(0)
        p = fresh_param(np.zeros(4))
        state = AdamState([p])
        seen = 0.0
        for _ in range(50):
            g = rng.uniform(-2.0, 2.0, 4)
            seen = max(seen, float(np.abs(g).max()))
            p.grad = g
            state.step()
            assert np.all(np.abs(state.m[0]) <= seen + 1e-12)
            assert np.all(state.v[0] >= 0.0)

    def test_update_depends_only_on_gradients(self):
        a = fresh_param([0.5, 0.5])
        b = fresh_param([0.5, 0.5])
        sa, sb = AdamState([a]), AdamState([b])
        # the same gradient values produced by different graphs
        with Tape() as tape:
            backward(tape, sum_all(mul(a, a)))
        b.grad = a.grad.copy()
        sa.step()
        sb.step()
        assert np.array_equal(a.data, b.data)

    def test_missing_gradient_identifies_parameter(self):
        p = fresh_param([1.0])
        with pytest.raises(TrainingError, match="theta"):
            AdamState([p]).step()

    def test_non_finite_gradient_identifies_parameter(self):
        p = fresh_param([1.0])
        p.grad = np.array([np.nan])
        with pytest.raises(TrainingError, match="theta"):
            AdamState([p]).step()

    @pytest.mark.parametrize("bad", [None, np.nan, np.inf], ids=["missing", "nan", "inf"])
    def test_bad_last_gradient_leaves_every_parameter_and_moment_unchanged(self, bad):
        params = [fresh_param([1.0, -2.0]), fresh_param([0.5])]
        state = AdamState(params)
        for p in params:
            p.grad = np.full(p.shape, 0.3)
        state.step()
        before = [a.copy() for a in (*[p.data for p in params], *state.m, *state.v)]
        params[0].grad = np.full(2, 0.7)
        params[1].grad = None if bad is None else np.array([bad])
        with pytest.raises(TrainingError, match="theta"):
            state.step()
        after = (*[p.data for p in params], *state.m, *state.v)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert state.t == 1

    def test_step_counter_increments_by_one(self):
        p = fresh_param([1.0])
        state = AdamState([p])
        for expected in (1, 2, 3):
            p.grad = np.array([0.1])
            state.step()
            assert state.t == expected

    def test_bits_match_the_written_out_update(self):
        # oracle: the textbook update, written out in the order AdamState.step
        # evaluates it, compared by bytes over gradients spanning ten decades
        rng = np.random.default_rng(18)
        shapes = [(7,), (3, 5), (2, 3, 4), (1,)]
        beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 1e-2
        params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
        state = AdamState(params, lr=lr)
        data = [p.data.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        for t in range(1, 301):
            c1 = 1.0 - beta1**t
            c2 = 1.0 - beta2**t
            for i, (p, s) in enumerate(zip(params, shapes)):
                g = rng.standard_normal(s) * 10.0 ** rng.uniform(-8.0, 2.0, s)
                p.grad = g
                m[i] *= beta1
                m[i] += (1.0 - beta1) * g
                v[i] *= beta2
                v[i] += (1.0 - beta2) * (g * g)
                data[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
            state.step()
            for i, p in enumerate(params):
                assert p.data.tobytes() == data[i].tobytes(), (t, i)
                assert state.m[i].tobytes() == m[i].tobytes(), (t, i)
                assert state.v[i].tobytes() == v[i].tobytes(), (t, i)
