"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The operation set is deliberately small: exactly what the models run besides
their fused layer kernels. Every op takes ``Tensor`` operands and converts
nothing. Values live in row-major (C-contiguous) numpy float64 arrays;
gradients are arrays of the same shape, allocated lazily during the backward
pass and accumulated additively across fan-out.

The tape keeps gradients, not values. Every tensor owns a ``GradSlot`` (its
shape and ``grad``); tape records and ``_record`` terms hold slots, and a
backward closure keeps a value only where its backward reads it (``matmul``
keeps the other operand for each input's gradient, ``reshape`` only its
input's shape). A forward value no backward reads is freed as soon as its
caller drops the tensor. The backward
frees memory as it goes: once a record has replayed, its closure, the
activations that closure saved and its output's gradient are released;
leaves keep their gradients.

An op whose backward adds one independent term into each input records
through the private ``_record``; one with any other backward (a fused
recurrent kernel) passes its own closure to ``record_op``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "GraphError",
    "active_tape",
    "record_op",
    "accumulate_grad",
    "backward",
    "zero_grads",
    "matmul",
    "linear",
    "reshape",
    "swap_last_axes",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class GraphError(RuntimeError):
    """Invalid use of the tape, e.g. backward from a non-scalar node."""


class GradSlot:
    """Where a tensor's gradient accumulates: its shape and ``grad``, not its value."""

    __slots__ = ("shape", "grad")

    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        self.grad: np.ndarray | None = None


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    ``data`` is always C-contiguous, so the underlying buffer is the flat
    row-major value array and ``shape`` is pure metadata. ``grad``, when
    present, matches ``data`` elementwise. It lives in ``slot``, which tape
    records hold instead of the tensor, so ``data`` can be freed first.
    """

    __slots__ = ("data", "slot", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # np.asarray with order="C" keeps 0-d shapes (ascontiguousarray would not)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.slot = GradSlot(self.data.shape)
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.slot.grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"


class Tape:
    """Execution-ordered record of differentiable operations.

    Operations append themselves in forward order, which is a valid
    topological order by construction. ``backward`` replays every record
    exactly once, in reverse insertion order, and leaves the tape spent: each
    record keeps only its op name, so ``len`` and ``op_names`` still
    describe it, and a second ``backward`` raises ``GraphError``. A record
    holds its output's ``GradSlot``, not the output tensor.
    """

    def __init__(self):
        self._records: list[tuple[str, GradSlot | None, object]] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPES.pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def op_names(self) -> list[str]:
        return [name for name, _, _ in self._records]


# open tapes, innermost last
_TAPES: list[Tape] = []


def active_tape() -> Tape | None:
    """The innermost open tape, or None in evaluation mode."""
    return _TAPES[-1] if _TAPES else None


def accumulate_grad(t: Tensor | GradSlot, g: np.ndarray) -> None:
    """Add a gradient of the tensor's shape into a tensor or its slot, allocating the buffer on first use."""
    if t.grad is None:
        # copy: g may alias a buffer the caller reuses
        t.grad = np.array(g)
    else:
        t.grad += g


def record_op(name: str, data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result, registering ``backward_fn`` when gradients are needed.

    ``backward_fn`` receives the output gradient and must accumulate into each
    input that has ``requires_grad``. Nothing is recorded in evaluation mode
    (no open tape) or when no input tracks gradients. The tape keeps the
    output's ``GradSlot``, not its value; ``backward_fn`` should likewise
    close over an input's slot (or shape) unless its backward reads the
    input's value. Call it directly only when the backward is not one
    independent term per input (a fused kernel); otherwise use ``_record``.
    """
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor(data, requires_grad=True)
        tape._records.append((name, out.slot, backward_fn))
        return out
    return Tensor(data)


def backward(tape: Tape, loss: Tensor) -> None:
    """Add into ``grad`` of every leaf reachable from the scalar ``loss``.

    Gradients accumulate additively when a tensor feeds several ops. Each
    record is reduced to its name just before its function runs, so the
    closure and the activations it saved are freed once it has replayed, and
    its output's ``grad`` is set back to None, so intermediate gradients live
    only until consumed. Leaves (parameters and inputs, which no record
    produced) keep their ``grad``. The tape is then spent: a second backward
    over it raises ``GraphError`` before it touches any gradient.
    """
    if loss.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    records = tape._records
    if records and records[-1][2] is None:
        raise GraphError("backward over a spent tape: its records have already replayed")
    loss.grad = np.ones_like(loss.data)
    for i in range(len(records) - 1, -1, -1):
        name, slot, fn = records[i]
        records[i] = (name, None, None)
        if slot.grad is not None:
            g, slot.grad = slot.grad, None
            fn(g)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def _record(name: str, data: np.ndarray, *terms) -> Tensor:
    """Record an op from ``(input, grad_fn)`` pairs: its backward adds
    ``grad_fn(g)`` into each input that has ``requires_grad``, in the order given.

    The record holds the inputs' ``GradSlot``s, not the inputs: a ``grad_fn``
    closes over an input's value only where it reads it, so an input no
    backward reads is freed once its caller drops it. A fresh array (not
    ``g``, not a view, not a broadcast) becomes an input's first gradient as
    it is; anything else is copied by ``accumulate_grad``.
    """
    slots = [(t.slot, grad_fn) for t, grad_fn in terms if t.requires_grad]

    def back(g):
        for slot, grad_fn in slots:
            r = grad_fn(g)
            if slot.grad is None and r is not g and r.base is None and r.flags.writeable:
                slot.grad = r
            else:
                accumulate_grad(slot, r)

    return record_op(name, data, tuple([t for t, _ in terms]), back)


# ---------------------------------------------------------------------------
# matrix products, and the logistic that gru_forward runs


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return _record("matmul", a.data @ b.data, (a, lambda g: g @ b.data.T), (b, lambda g: a.data.T @ g))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w.T + b`` over the last axis of ``x`` [..., in].

    ``w`` is stored [out, in] so a row holds one output unit's weights. The
    weight gradient sums over all leading axes in one GEMM.
    """
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D [out, in], got {w.shape}")
    if x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear input {x.shape} does not match weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear bias {b.shape} does not match weight {w.shape}")
    n_out, n_in = w.shape
    # numpy's matmul runs one GEMM per leading index. A single [B*T, in] GEMM
    # is large enough for OpenBLAS to split over its threads, which touches
    # their buffers: +1.3 MB peak RSS on a 50-wide head on 2 vCPUs.
    return _record(
        "linear",
        x.data @ w.data.T + b.data,
        (x, lambda g: g @ w.data),
        (w, lambda g: g.reshape(-1, n_out).T @ x.data.reshape(-1, n_in)),
        (b, lambda g: g.reshape(-1, n_out).sum(axis=0)),
    )


def _logistic_neg(m: np.ndarray) -> np.ndarray:
    """The logistic of x = -m, 1/(1+e^m), in place on ``m``, which holds the negated argument.

    Below x = -709 e^m overflows to inf and the result is exactly 0; above
    x = 708 it underflows, and the result is exactly 1 from x = 37 on. Both
    are silenced whatever the caller's ``np.errstate``. The relative error
    stays a few ulp on the lower tail, where (1 + tanh(x/2))/2 cancels.
    """
    with np.errstate(over="ignore", under="ignore"):
        np.exp(m, out=m)
    m += 1.0
    return np.reciprocal(m, out=m)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    """Metadata-only reshape; element count must be preserved."""
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    in_shape = a.shape
    return _record("reshape", a.data.reshape(shape), (a, lambda g: g.reshape(in_shape)))


def swap_last_axes(a: Tensor) -> Tensor:
    """Transpose the final two axes; gradient is the inverse transpose.

    The gradient is a C-contiguous copy, which ``_record`` adopts as it is,
    so the input's backward reads it in row-major order.
    """
    if a.ndim < 2:
        raise ShapeError(f"swap_last_axes needs at least 2 axes, got shape {a.shape}")
    return _record("swap_last_axes", a.data.swapaxes(-1, -2), (a, lambda g: np.ascontiguousarray(g.swapaxes(-1, -2))))

