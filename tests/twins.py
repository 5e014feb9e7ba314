"""Differentiable numpy twins of ops the tensor core does not export.

The tests build losses, oracles and tape scenarios from a few elementwise
ops that no model runs. Each twin records through ``raeslab.tensor._record``
with the forward and backward of the core op it replaced, under the same
record name, so values, gradients and tape op lists keep their bits. Operands
are tensors of one shape, or a 0-d constant tensor on either side.
"""

import numpy as np

from raeslab.tensor import _logistic_neg, _record


def project(y, r):
    """``sum(y * r)`` for a constant array ``r`` of ``y``'s shape, as one
    ``project`` record whose backward is ``g * r``: a scalar loss whose
    gradient with respect to ``y`` is exactly ``r``."""
    return _record("project", np.asarray((y.data * r).sum()), (y, lambda g: g * r))


def add(a, b):
    return _record("add", a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a, b):
    return _record("sub", a.data - b.data, (a, lambda g: g), (b, np.negative))


def mul(a, b):
    return _record("mul", a.data * b.data, (a, lambda g: g * b.data), (b, lambda g: g * a.data))


def sigmoid(a):
    s = _logistic_neg(np.negative(a.data))
    return _record("sigmoid", s, (a, lambda g: g * s * (1.0 - s)))


def tanh_op(a):
    t = np.tanh(a.data)
    return _record("tanh", t, (a, lambda g: g * (1.0 - t * t)))


def sum_all(a):
    shape = a.shape
    return _record("sum_all", np.asarray(a.data.sum()), (a, lambda g: np.broadcast_to(g, shape)))


def mean_all(a):
    shape, size = a.shape, a.size
    return _record("mean_all", np.asarray(a.data.mean()), (a, lambda g: np.broadcast_to(g / size, shape)))
