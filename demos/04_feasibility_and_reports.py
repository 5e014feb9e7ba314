"""The benchmark grid's feasibility pattern and the CSV report layout.

The sequence-aware reshape only applies when the context size divides the
sequence length evenly; the convolutional variant removes that constraint.
This demo reproduces the dash pattern over the (features, sigma) grid without
training, then runs one tiny cell end to end to show the report files.

Run with:  python3 demos/04_feasibility_and_reports.py
"""

import tempfile
from pathlib import Path

from raeslab import ContextSpec, ExperimentConfig, ModelVariant, run_experiment, write_report
from raeslab.models import context_size_from_sigma, infeasibility_reason

SEQ_LEN = 200
print(f"feasibility over the benchmark grid (sequence length {SEQ_LEN}):")
print(f"{'features':>8} {'sigma':>6} {'context':>8} {'rae':>4} {'raes':>5} {'raesc':>6}")
for features in (1, 2, 4, 8):
    for sigma in (0.25, 0.5, 1.0):
        spec = ContextSpec.autoencoding(SEQ_LEN, features, sigma)
        marks = [
            "-" if infeasibility_reason(ModelVariant(kind), spec) else "ok"
            for kind in ("rae", "raes", "raesc")
        ]
        n_c = context_size_from_sigma(sigma, features, SEQ_LEN)
        print(f"{features:>8} {sigma:>6.0%} {n_c:>8} {marks[0]:>4} {marks[1]:>5} {marks[2]:>6}")

print("\nrunning one tiny cell to produce the report files...")
with tempfile.TemporaryDirectory(prefix="raes-demo-") as tmp:
    out = Path(tmp)
    cfg = ExperimentConfig(
        variants=[ModelVariant("rae"), ModelVariant("raes"), ModelVariant("raesc")],
        n_features=1,
        seq_len=16,
        sigma=1.0,
        epochs=3,
        n_sequences=60,
        batch_size=12,
        seed=0,
    )
    write_report(run_experiment(cfg), out)
    for path in sorted(out.iterdir()):
        print(f"\n--- {path.name} ---")
        print(path.read_text(), end="")
