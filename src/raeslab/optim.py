"""Mean squared error loss and the Adam optimizer."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, mean_all, mul, sub

__all__ = ["TrainingError", "mse_loss", "AdamState", "adam_step"]


class TrainingError(RuntimeError):
    """Raised when training hits a non-finite loss or gradient."""


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean over all elements of the squared difference; differentiable."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = sub(pred, target)
    return mean_all(mul(diff, diff))


class AdamState:
    """First/second-moment estimates bound to a fixed parameter list."""

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        adam_step(self)


def adam_step(state: AdamState) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    m = b1 m + (1-b1) g, v = b2 v + (1-b2) g^2, and the step is
    -lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).
    """
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for i, p in enumerate(state.params):
        g = p.grad
        label = p.name or f"parameter #{i}"
        if g is None:
            raise TrainingError(f"gradient missing for {label}; run backward before adam_step")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for {label}")
        m, v = state.m[i], state.v[i]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
