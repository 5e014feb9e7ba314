"""A tour of the tensor core: values, the tape, gradients, and a sanity check.

Run with:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from raeslab.gradcheck import check_gradients
from raeslab.tensor import Tape, Tensor, add, backward, matmul, mean_all, mul, sigmoid, tanh_op

# Tensors wrap row-major float64 arrays. Only tensors created with
# requires_grad=True (parameters) collect gradients.
w = Tensor(np.array([[0.2, -0.4], [0.7, 0.1]]), requires_grad=True, name="w")
x = Tensor(np.array([[1.0, 2.0]]))

# Ops executed inside an open Tape are recorded in execution order.
with Tape() as tape:
    hidden = tanh_op(matmul(x, w))
    gate = sigmoid(hidden)
    loss = mean_all(mul(gate, gate))
    backward(tape, loss)

print("recorded ops:", tape.op_names())
print("loss:", float(loss.data))
print("dloss/dw:\n", w.grad)

# The same gradient, independently, by central finite differences.
def build():
    return mean_all(mul(sigmoid(tanh_op(matmul(x, w))), sigmoid(tanh_op(matmul(x, w)))))

err = check_gradients(build, [w])
print(f"worst relative error vs finite differences: {err:.2e}")

# Fan-out accumulates: using a tensor twice sums both path gradients.
y = Tensor(np.asarray(3.0), requires_grad=True)
with Tape() as tape:
    backward(tape, add(y, y))
print("d(y+y)/dy =", float(y.grad), "(two paths, each contributing 1)")
