"""Mean squared error loss and the Adam optimizer."""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _record

__all__ = ["TrainingError", "mse_loss", "AdamState"]


class TrainingError(RuntimeError):
    """Raised when training hits a non-finite loss or gradient."""


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all elements of the squared difference, as one ``mse`` record.

    With d = pred - target, the backward gives pred t = 2 d g / size and a
    target that requires grad -t. t is formed as (g/size) d added to itself,
    so its bits are those of a sub, mul and mean chain of records.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    d = pred.data - target.data

    def twice(g):
        t = np.broadcast_to(g / d.size, d.shape) * d
        t += t
        return t

    return _record("mse", np.asarray((d * d).mean()), (pred, twice), (target, lambda g: -twice(g)))


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second-moment estimates bound to a fixed parameter list."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One bias-corrected Adam update, applied to the parameters in place.

        m = b1 m + (1-b1) g, v = b2 v + (1-b2) g^2, and the step is
        -lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps). Every gradient is
        checked first, so a missing or non-finite one leaves the parameters,
        the moments and t as they were.
        """
        for i, p in enumerate(self.params):
            label = p.name or f"parameter #{i}"
            if p.grad is None:
                raise TrainingError(f"gradient missing for {label}; run backward before AdamState.step")
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient for {label}")
        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
