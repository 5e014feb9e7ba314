"""How the same context vector becomes a decoder input, four different ways.

The encoder compresses a sequence into its final hidden state (the context).
Each strategy then builds the decoder's input sequence from that flat vector:

  rae           repeat the whole vector at every step
  raes          cut it into equal chunks, one chunk per step (needs
                context_size % seq_len == 0)
  raesc         run a 1D convolution + max-pool over it and hand each
                filter's response to one step (no divisibility constraint)
  raes-stretch  linearly interpolate it up to one value per step

Everything takes batches, so one context or sequence goes in as a batch of
one: [1, context_size] and [1, seq_len, n_features].

Run with:  python3 demos/02_context_decoding_strategies.py
"""

import numpy as np

from raeslab import (
    AutoencoderModel,
    ContextSpec,
    ModelVariant,
    Tensor,
    context_size_from_sigma,
    raes_feasible,
    stretch_context,
    transform_context,
)
from raeslab.models import decoder_input_steps, encode_context, infeasibility_reason

# The context transforms on a small hand-made vector first, as a batch of one.
context = Tensor(np.array([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]))
print("context:", context.data[0])
print("raes reshape to 3 steps (2 features each):\n", transform_context(context, 3).data[0])
print("stretched to 11 univariate steps:\n", stretch_context(context, 11).data.ravel())

# Sizing: the context grows with the ratio sigma (here 16 steps, 2 features).
for sigma in (0.25, 0.5, 1.0):
    n_c = context_size_from_sigma(sigma, 2, 16)
    lam = raes_feasible(n_c, 16)
    print(f"sigma={sigma:4.2f}: context size {n_c:2d}, chunk size {lam}")

# Full models on one toy input; every variant ends at the same output shape.
spec = ContextSpec.autoencoding(seq_len=16, n_features=2, sigma=0.5)
rng = np.random.default_rng(7)
x = Tensor(rng.uniform(-1, 1, (1, 16, 2)))
for kind in ("rae", "raes", "raesc", "raes-stretch"):
    variant = ModelVariant(kind)
    reason = infeasibility_reason(variant, spec)
    if reason is not None:
        print(f"{kind:13s} skipped: {reason}")
        continue
    model = AutoencoderModel.build(variant, spec, rng)
    steps = decoder_input_steps(model, encode_context(model, x))
    out = model.forward(x)
    print(
        f"{kind:13s} decoder consumes {len(steps)} steps of {steps[0].shape[-1]} "
        f"features -> output {out.shape}"
    )
