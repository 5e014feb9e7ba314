"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

The operation set is deliberately small: exactly what recurrent layers, a 1D
convolution stack and an MSE head need. ``take_step`` and ``unstack_steps``
split a sequence [..., T, m] into steps, one ``step`` record each. Values
live in row-major (C-contiguous) numpy float64 arrays; gradients are arrays
of the same shape, allocated lazily during the backward pass and accumulated
additively across fan-out. An op output's gradient is released once its
record has replayed; leaves keep theirs.
"""

from __future__ import annotations

import threading

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
    "add",
    "sub",
    "mul",
    "matmul",
    "linear",
    "sigmoid",
    "tanh_op",
    "reshape",
    "swap_last_axes",
    "sum_all",
    "mean_all",
    "take_step",
    "unstack_steps",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class GraphError(RuntimeError):
    """Invalid use of the tape, e.g. backward from a non-scalar node."""


class Tensor:
    """A dense float64 array with an optional gradient buffer.

    ``data`` is always C-contiguous, so the underlying buffer is the flat
    row-major value array and ``shape`` is pure metadata. ``grad``, when
    present, matches ``data`` elementwise.
    """

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        # np.asarray with order="C" keeps 0-d shapes (ascontiguousarray would not)
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name

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
    exactly once, in reverse insertion order, and releases each record
    output's gradient as that record consumes it; leaves keep theirs.
    """

    def __init__(self):
        self._records: list[tuple[str, Tensor, object]] = []

    def __enter__(self) -> "Tape":
        _tapes().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tapes().pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def op_names(self) -> list[str]:
        return [name for name, _, _ in self._records]


_LOCAL = threading.local()


def _tapes() -> list[Tape]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def active_tape() -> Tape | None:
    """The innermost open tape on this thread, or None in evaluation mode."""
    stack = _tapes()
    return stack[-1] if stack else None


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to ``t``, allocating the buffer on first use."""
    if t.grad is None:
        # copy: g may alias a buffer the caller reuses, and may need broadcasting
        t.grad = np.array(np.broadcast_to(g, t.data.shape))
    else:
        t.grad += g


def record_op(name: str, data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op result, registering ``backward_fn`` when gradients are needed.

    ``backward_fn`` receives the output gradient and must accumulate into each
    input that has ``requires_grad``. Nothing is recorded in evaluation mode
    (no open tape) or when no input tracks gradients.
    """
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor(data, requires_grad=True)
        tape._records.append((name, out, backward_fn))
        return out
    return Tensor(data)


def backward(tape: Tape, loss: Tensor) -> None:
    """Add into ``grad`` of every leaf reachable from the scalar ``loss``.

    Gradients accumulate additively when a tensor feeds several ops. Each
    recorded op output's ``grad`` is set back to None as its record replays,
    so intermediate gradients live only until consumed and a second backward
    over the same tape adds each leaf's gradient terms once more. Leaves
    (parameters and inputs, which no record produced) keep their ``grad``.
    """
    if loss.size != 1:
        raise GraphError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for _, out, fn in reversed(tape._records):
        g = out.grad
        if g is not None:
            out.grad = None
            fn(g)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# elementwise and arithmetic ops


def add(a, b) -> Tensor:
    """Elementwise sum; either operand may be a scalar."""
    if isinstance(b, (int, float)):
        a = _as_tensor(a)
        out = a.data + float(b)

        def back(g, a=a):
            if a.requires_grad:
                accumulate_grad(a, g)

        return record_op("add", out, (a,), back)
    if isinstance(a, (int, float)):
        return add(b, a)

    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def back(g, a=a, b=b):
        if a.requires_grad:
            accumulate_grad(a, g)
        if b.requires_grad:
            accumulate_grad(b, g)

    return record_op("add", out, (a, b), back)


def sub(a, b) -> Tensor:
    """Elementwise difference; either operand may be a scalar."""
    if isinstance(b, (int, float)):
        a = _as_tensor(a)
        out = a.data - float(b)

        def back(g, a=a):
            if a.requires_grad:
                accumulate_grad(a, g)

        return record_op("sub", out, (a,), back)
    if isinstance(a, (int, float)):
        b = _as_tensor(b)
        out = float(a) - b.data

        def back(g, b=b):
            if b.requires_grad:
                accumulate_grad(b, -g)

        return record_op("sub", out, (b,), back)

    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    out = a.data - b.data

    def back(g, a=a, b=b):
        if a.requires_grad:
            accumulate_grad(a, g)
        if b.requires_grad:
            accumulate_grad(b, -g)

    return record_op("sub", out, (a, b), back)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product; either operand may be a scalar."""
    if isinstance(b, (int, float)):
        a = _as_tensor(a)
        out = a.data * float(b)

        def back(g, a=a, c=float(b)):
            if a.requires_grad:
                accumulate_grad(a, g * c)

        return record_op("mul", out, (a,), back)
    if isinstance(a, (int, float)):
        return mul(b, a)

    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = a.data * b.data

    def back(g, a=a, b=b):
        if a.requires_grad:
            accumulate_grad(a, g * b.data)
        if b.requires_grad:
            accumulate_grad(b, g * a.data)

    return record_op("mul", out, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def back(g, a=a, b=b):
        if a.requires_grad:
            accumulate_grad(a, g @ b.data.T)
        if b.requires_grad:
            accumulate_grad(b, a.data.T @ g)

    return record_op("matmul", out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w.T + b`` over the last axis of ``x`` [..., in].

    ``w`` is stored [out, in] so a row holds one output unit's weights. The
    weight gradient sums over all leading axes in one GEMM.
    """
    x = _as_tensor(x)
    if w.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D [out, in], got {w.shape}")
    if x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear input {x.shape} does not match weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"linear bias {b.shape} does not match weight {w.shape}")
    # numpy's matmul runs one GEMM per leading index. A single [B*T, in] GEMM
    # is large enough for OpenBLAS to split over its threads, which touches
    # their buffers: +1.3 MB peak RSS on a 50-wide head on 2 vCPUs.
    out = x.data @ w.data.T + b.data

    def back(g, x=x, w=w, b=b):
        if x.requires_grad:
            accumulate_grad(x, g @ w.data)
        g2 = g.reshape(-1, w.shape[0])
        if w.requires_grad:
            accumulate_grad(w, g2.T @ x.data.reshape(-1, w.shape[1]))
        if b.requires_grad:
            accumulate_grad(b, g2.sum(axis=0))

    return record_op("linear", out, (x, w, b), back)


def _logistic(a: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) as (1 + tanh(x/2))/2: tanh saturates at ±1, so neither tail overflows."""
    t = np.tanh(a * 0.5)
    t += 1.0
    t *= 0.5
    return t


def sigmoid(a: Tensor) -> Tensor:
    """Elementwise logistic function, computed without overflow on either tail."""
    a = _as_tensor(a)
    out = _logistic(a.data)

    def back(g, a=a, s=out):
        if a.requires_grad:
            accumulate_grad(a, g * s * (1.0 - s))

    return record_op("sigmoid", out, (a,), back)


def tanh_op(a: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def back(g, a=a, t=out):
        if a.requires_grad:
            accumulate_grad(a, g * (1.0 - t * t))

    return record_op("tanh", out, (a,), back)


# ---------------------------------------------------------------------------
# shape and reduction ops


def reshape(a: Tensor, shape) -> Tensor:
    """Metadata-only reshape; element count must be preserved."""
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    out = a.data.reshape(shape)

    def back(g, a=a):
        if a.requires_grad:
            accumulate_grad(a, g.reshape(a.shape))

    return record_op("reshape", out, (a,), back)


def swap_last_axes(a: Tensor) -> Tensor:
    """Transpose the final two axes; gradient is the inverse transpose."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"swap_last_axes needs at least 2 axes, got shape {a.shape}")
    out = a.data.swapaxes(-1, -2)

    def back(g, a=a):
        if a.requires_grad:
            accumulate_grad(a, g.swapaxes(-1, -2))

    return record_op("swap_last_axes", out, (a,), back)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    out = np.asarray(a.data.sum())

    def back(g, a=a):
        if a.requires_grad:
            accumulate_grad(a, np.broadcast_to(g, a.shape))

    return record_op("sum_all", out, (a,), back)


def mean_all(a: Tensor) -> Tensor:
    """Mean of all elements, as a scalar tensor."""
    a = _as_tensor(a)
    out = np.asarray(a.data.mean())

    def back(g, a=a, n=a.size):
        if a.requires_grad:
            accumulate_grad(a, np.broadcast_to(g / n, a.shape))

    return record_op("mean_all", out, (a,), back)


def take_step(t: Tensor, i: int) -> Tensor:
    """Step ``i`` along the second-to-last axis; the gradient scatters back into ``t``."""
    t = _as_tensor(t)
    if t.ndim < 2:
        raise ShapeError(f"take_step needs at least 2 axes, got shape {t.shape}")
    idx = (slice(None),) * (t.ndim - 2) + (i,)

    def back(g, t=t, idx=idx):
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad[idx] += g

    return record_op("step", t.data[idx], (t,), back)


def unstack_steps(t: Tensor) -> list[Tensor]:
    """Split along the second-to-last axis into per-step tensors, one ``step`` record each."""
    t = _as_tensor(t)
    if t.ndim < 2:
        raise ShapeError(f"unstack_steps needs at least 2 axes, got shape {t.shape}")
    return [take_step(t, i) for i in range(t.shape[-2])]
