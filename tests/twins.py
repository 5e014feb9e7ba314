"""Differentiable numpy twins of ops the tensor core does not export.

The tests build losses, oracles and tape scenarios from a few elementwise
ops that no model runs, and split sequences into the step lists the GRU
oracles take. Each twin records through ``raeslab.tensor._record`` (or, for
``unstack_steps``, appends one record itself) with the forward and backward
of the core op it replaced, under the same record name, so values, gradients
and tape op lists keep their bits. Operands are tensors of one shape, or a
0-d constant tensor on either side.
"""

import numpy as np

from raeslab.tensor import GradSlot, Tensor, _logistic_neg, _record, active_tape


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


def unstack_steps(t):
    """Split along the second-to-last axis into C-contiguous per-step tensors, in one ``unstack`` record.

    Its backward adds each step's gradient into that step of ``t``'s, zero-filled
    first, and allocates nothing when no step took a gradient. The tape replays
    a record only when its output slot holds a gradient, so the record's slot
    always holds one: it replays whether or not any step took a gradient.
    """
    idx = [(slice(None),) * (t.ndim - 2) + (i,) for i in range(t.shape[-2])]
    tape = active_tape() if t.requires_grad else None
    steps = [Tensor(t.data[i], requires_grad=tape is not None) for i in idx]
    if tape is not None:
        slot, slots = t.slot, [s.slot for s in steps]
        always = GradSlot(())
        always.grad = np.zeros(())

        def back(_):
            for i, s in zip(reversed(idx), reversed(slots)):
                if s.grad is not None:
                    if slot.grad is None:
                        slot.grad = np.zeros(slot.shape)
                    slot.grad[i] += s.grad
                    s.grad = None

        tape._records.append(("unstack", always, back))
    return steps
