"""Finite-difference verification of every differentiable building block.

Analytic gradients from the tape are compared against central differences
(step 1e-5) with the relative error |analytic - numeric| / max(1, |numeric|).
The numeric side only re-evaluates forward passes, so it is independent of
the backward implementation it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
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
from .optim import mse_loss
from .tensor import (
    Tape,
    Tensor,
    add,
    backward,
    matmul,
    mean_all,
    mul,
    reshape,
    sigmoid,
    sub,
    sum_all,
    swap_last_axes,
    tanh_op,
    zero_grads,
)

__all__ = ["check_gradients", "CheckResult", "default_suite"]

STEP = 1e-5
TOLERANCE = 1e-4


def check_gradients(build_loss, tensors) -> float:
    """Worst relative error between tape and central-difference gradients.

    ``build_loss`` must return a scalar Tensor computed from the current
    values of ``tensors`` (re-invoked for every perturbation).
    """
    tensors = list(tensors)
    zero_grads(tensors)
    with Tape() as tape:
        loss = build_loss()
        backward(tape, loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, ga in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + STEP
            up = float(build_loss().data)
            flat[i] = keep - STEP
            down = float(build_loss().data)
            flat[i] = keep
            numeric[i] = (up - down) / (2.0 * STEP)
        err = np.abs(ga.reshape(-1) - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = max(worst, float(err.max(initial=0.0)))
    return worst


@dataclass
class CheckResult:
    name: str
    max_error: float

    @property
    def passed(self) -> bool:
        return self.max_error < TOLERANCE


def _rand(rng, *shape) -> Tensor:
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


def _check_projected(rng, block, tensors) -> float:
    """Check ``block`` through a fixed random projection of its output; one
    forward without a tape gives the shape, and it draws nothing from ``rng``."""
    r = Tensor(rng.uniform(-1.0, 1.0, size=block().shape))
    return check_gradients(lambda: sum_all(mul(block(), r)), tensors)


def _check_core_ops(rng) -> float:
    x = _rand(rng, 3, 4)
    w = _rand(rng, 4, 3)

    def build():
        y = tanh_op(matmul(x, w))
        z = sigmoid(reshape(y, (9,)))
        s = add(mul(z, z), sub(1.0, z))
        return mean_all(mul(s, s))

    return check_gradients(build, [x, w])


def _check_dense(rng) -> float:
    layer = DenseLayer(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
    seq = _rand(rng, 2, int(rng.integers(1, 5)), layer.in_features)
    return _check_projected(rng, lambda: time_distributed_dense(layer, seq), layer.parameters() + [seq])


def _check_gru_one_step(rng) -> float:
    layer = GRULayer(int(rng.integers(1, 5)), int(rng.integers(1, 7)), rng)
    x = _rand(rng, 2, layer.input_size)
    h0 = _rand(rng, 2, layer.hidden_size)
    return _check_projected(rng, lambda: gru_forward(layer, [x], h0), layer.parameters() + [x, h0])


def _check_gru_forward(rng) -> float:
    layer = GRULayer(int(rng.integers(1, 4)), int(rng.integers(1, 6)), rng)
    steps = [_rand(rng, 1, layer.input_size) for _ in range(int(rng.integers(1, 8)))]
    h0 = _rand(rng, 1, layer.hidden_size)
    return _check_projected(rng, lambda: gru_forward(layer, steps, h0), layer.parameters() + steps + [h0])


def _check_conv1d(rng) -> float:
    in_ch = int(rng.integers(1, 4))
    kernel = int(rng.integers(1, 4))
    filters = int(rng.integers(1, 4))
    length = kernel + int(rng.integers(0, 5))
    layer = Conv1DLayer(in_ch, filters, kernel, rng)
    layer.b.data[:] = rng.uniform(-0.5, 0.5, size=filters)
    seq = _rand(rng, 1, length, in_ch)
    return _check_projected(rng, lambda: conv1d_forward(layer, seq), layer.parameters() + [seq])


def _check_maxpool(rng) -> float:
    pool = MaxPool1D(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    channels = int(rng.integers(1, 4))
    length = pool.pool_size + int(rng.integers(0, 6))
    # well-separated values: ties or near-ties would break finite differences
    vals = np.linspace(-1.0, 1.0, length * channels)
    seq = Tensor(rng.permutation(vals).reshape(1, length, channels), requires_grad=True)
    return _check_projected(rng, lambda: maxpool1d_forward(pool, seq), [seq])


def _check_transpose(rng) -> float:
    seq = _rand(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    return _check_projected(rng, lambda: swap_last_axes(seq), [seq])


# context ratio of each variant's toy model over 4 univariate steps
_TOY_SIGMAS = {models.RAE: 1.25, models.RAES: 2.0, models.RAESC: 1.5, models.RAES_STRETCH: 0.75}


def _check_model(kind: str, rng) -> float:
    variant = models.ModelVariant(kind, kernel_size=2)
    spec = models.ContextSpec.autoencoding(seq_len=4, n_features=1, sigma=_TOY_SIGMAS[kind])
    model = models.AutoencoderModel.build(variant, spec, rng)
    x = Tensor(rng.uniform(-1.0, 1.0, size=(2, spec.seq_len, spec.n_features)))
    target = rng.uniform(-1.0, 1.0, size=x.shape)

    def build():
        return mse_loss(model.forward(x), target)

    return check_gradients(build, model.parameters())


def default_suite(instances: int = 10, seed: int = 2024) -> list[CheckResult]:
    """Run every check ``instances`` times; worst error per check is reported."""
    if instances < 1:
        raise ValueError(f"gradcheck needs at least 1 instance per check, got {instances}")
    named = [
        ("core-ops", _check_core_ops),
        ("dense-head", _check_dense),
        ("gru-step", _check_gru_one_step),
        ("gru-sequence", _check_gru_forward),
        ("conv1d", _check_conv1d),
        ("maxpool1d", _check_maxpool),
        ("transpose", _check_transpose),
    ] + [(f"{kind}-full", lambda r, kind=kind: _check_model(kind, r)) for kind in _TOY_SIGMAS]
    results = []
    for name, fn in named:
        worst = 0.0
        for k in range(instances):
            rng = np.random.default_rng([seed, k] + [ord(c) for c in name])
            worst = max(worst, fn(rng))
        results.append(CheckResult(name, worst))
    return results
