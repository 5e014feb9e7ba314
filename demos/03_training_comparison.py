"""Train the decoding strategies head-to-head on one synthetic dataset.

Every variant sees the identical signals, split and batch order; only the
context decoding differs. Expect the sequence-aware variants to pull ahead of
the plain repeat-context baseline within a few epochs.

Run with:  python3 demos/03_training_comparison.py   (about a minute)
"""

from raeslab.harness import ExperimentConfig, median_epoch_time, run_experiment
from raeslab.models import ModelVariant

cfg = ExperimentConfig(
    variants=[ModelVariant("rae"), ModelVariant("raes"), ModelVariant("raesc")],
    n_features=1,
    seq_len=32,
    sigma=1.0,
    epochs=12,
    n_sequences=300,
    batch_size=10,
    lr=1e-2,
    seed=11,
)
results = run_experiment(cfg)

print(f"{'epoch':>5}  " + "  ".join(f"{r.variant.kind:>12}" for r in results))
for e in range(cfg.epochs):
    row = [f"{r.records[e].val_mse:12.4f}" for r in results]
    print(f"{e:>5}  " + "  ".join(row))

print("\nvalidation MSE after training, and median epoch wall time:")
for r in results:
    print(
        f"  {r.variant.kind:13s} final {r.records[-1].val_mse:.4f}  "
        f"median epoch {median_epoch_time(r.records):.3f}s"
    )
