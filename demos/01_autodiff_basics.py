"""A tour of the tensor core: values, the tape, gradients, and a sanity check.

Run with:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from raeslab.gradcheck import check_gradients
from raeslab.optim import mse_loss
from raeslab.tensor import Tape, Tensor, backward, matmul, reshape

# Tensors wrap row-major float64 arrays. Only tensors created with
# requires_grad=True (parameters) collect gradients.
w = Tensor(np.array([[0.2, -0.4], [0.7, 0.1]]), requires_grad=True, name="w")
x = Tensor(np.array([[1.0, 2.0]]))
target = Tensor(np.array([0.5, -1.0]))

# Ops executed inside an open Tape are recorded in execution order.
with Tape() as tape:
    hidden = matmul(x, w)
    loss = mse_loss(reshape(hidden, (2,)), target)
    backward(tape, loss)

print("recorded ops:", tape.op_names())
print("loss:", float(loss.data))
print("dloss/dw:\n", w.grad)


# The same gradient, independently, by central finite differences.
def build():
    return mse_loss(reshape(matmul(x, w), (2,)), target)


err = check_gradients(build, [w])
print(f"worst relative error vs finite differences: {err:.2e}")

# Fan-out accumulates: using a tensor twice sums both path gradients.
y = Tensor(np.array([[3.0]]), requires_grad=True)
with Tape() as tape:
    backward(tape, mse_loss(matmul(y, y), Tensor(np.zeros((1, 1)))))
print("d(y*y)^2/dy =", float(y.grad[0, 0]), "(4y^3: two paths through y*y, each contributing 2y^3)")
