"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 4 and 5 train real
models at desk scale: on 2 vCPUs (numpy 2.4.6, OpenBLAS 0.3.31) `--durations`
put criterion 4 at 133-153 s and criterion 5 at 29-49 s over three runs. The
remaining criteria finish in seconds.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from raeslab.data import Dataset
from raeslab.gradcheck import default_suite
from raeslab.harness import (
    EpochRecord,
    ExperimentConfig,
    VariantResult,
    median_epoch_time,
    run_experiment,
    write_report,
)
from raeslab.layers import Conv1DLayer, MaxPool1D, conv1d_forward, maxpool1d_forward
from raeslab.models import (
    ContextSpec,
    ModelVariant,
    context_size_from_sigma,
    infeasibility_reason,
    raes_feasible,
    transform_context,
)
from raeslab.optim import AdamState
from raeslab.tensor import Tensor

from test_layers import naive_conv1d, naive_maxpool


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {criterion}: {status}{suffix}")
    assert passed, f"{criterion}{suffix}"


def first_epoch_at_fraction(records: list[EpochRecord], fraction: float = 0.25):
    base = records[0].val_mse
    return next((r.epoch for r in records if r.val_mse <= fraction * base), None)


def test_criterion_1_gradient_correctness():
    """Every layer and full model passes finite-difference checks in under a minute."""
    start = time.perf_counter()
    results = default_suite(instances=10, seed=2024)
    elapsed = time.perf_counter() - start
    worst = max(r.max_error for r in results)
    names = {r.name for r in results}
    assert {"dense-head", "gru-step", "gru-sequence", "conv1d", "maxpool1d", "transpose",
            "rae-full", "raes-full", "raesc-full"} <= names
    report(
        "criterion 1: gradient correctness",
        all(r.passed for r in results) and elapsed < 60.0,
        f"worst rel err {worst:.2e} over {len(results)} checks x 10 instances, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    """conv1d, maxpool and the context reshape match independent naive oracles."""
    rng = np.random.default_rng(7)
    conv_ok = True
    for _ in range(100):
        channels = int(rng.integers(1, 4))
        kernel = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 5))
        length = int(rng.integers(kernel, 17))
        layer = Conv1DLayer(channels, filters, kernel, rng)
        layer.b.data[:] = rng.uniform(-1, 1, filters)
        x = rng.uniform(-1, 1, (length, channels))
        got = conv1d_forward(layer, Tensor(x[None])).data[0]
        conv_ok = conv_ok and np.array_equal(got, naive_conv1d(x, layer.w.data, layer.b.data))

    reshape_ok = True
    for _ in range(100):
        seq_len = int(rng.integers(1, 50))
        lam = int(rng.integers(1, 9))
        c = rng.uniform(-1, 1, seq_len * lam)
        out = transform_context(Tensor(c[None]), seq_len)
        reshape_ok = reshape_ok and np.array_equal(out.data.ravel(), c)

    pool_ok = True
    for _ in range(100):
        pool = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 4))
        length = int(rng.integers(pool, 16))
        x = rng.uniform(-1, 1, (length, int(rng.integers(1, 4))))
        got = maxpool1d_forward(MaxPool1D(pool, stride), Tensor(x[None])).data[0]
        pool_ok = pool_ok and np.array_equal(got, naive_maxpool(x, pool, stride))

    report(
        "criterion 2: oracle equivalence",
        conv_ok and reshape_ok and pool_ok,
        "conv bit-exact 100/100, reshape roundtrip 100/100, maxpool 100/100",
    )


def test_criterion_3_feasibility_matrix():
    """RAES infeasible exactly at (1, 25%), (1, 50%), (2, 25%) on the 200-step grid."""
    infeasible = set()
    for features in (1, 2, 4, 8):
        for sigma in (0.25, 0.5, 1.0):
            n_c = context_size_from_sigma(sigma, features, 200)
            if raes_feasible(n_c, 200) is None:
                infeasible.add((features, sigma))
            spec = ContextSpec.autoencoding(200, features, sigma)
            skip = infeasibility_reason(ModelVariant("raes"), spec)
            assert (skip is not None) == ((features, sigma) in infeasible)
    expected = {(1, 0.25), (1, 0.5), (2, 0.25)}
    report(
        "criterion 3: feasibility matrix",
        infeasible == expected,
        f"infeasible cells {sorted(infeasible)}",
    )


# Desk-scale training setup shared by criteria 4 and 5, validated across
# seeds 1-3. The criterion pins dataset size, sequence length, features,
# sigma and the epoch budget; the remaining knobs are scaled for the 10x
# smaller data: batch stays at the standard 100 (so an epoch is 4 optimizer
# steps), one global learning rate for every variant (no per-variant tuning)
# compensates for the short horizon, and single-component signals keep the
# relative frequency content comparable to full-length sequences (the cycle
# range is fixed while sequences are 4x shorter).
DESK = dict(batch_size=100, lr=1.5e-2, components_per_feature=1)


@pytest.mark.slow
def test_criterion_4_convergence_speed_ordering():
    """Sequence-aware variants reach 25% of their first-epoch val MSE at least
    three times sooner than the baseline (or the baseline never gets there)."""
    outcomes = []
    for seed in (1, 2, 3):
        cfg = ExperimentConfig(
            variants=[ModelVariant("rae"), ModelVariant("raes"), ModelVariant("raesc")],
            n_features=1,
            seq_len=50,
            sigma=1.0,
            epochs=60,
            n_sequences=500,
            seed=seed,
            **DESK,
        )
        records = {r.variant.kind: r.records for r in run_experiment(cfg)}
        reach = {kind: first_epoch_at_fraction(recs) for kind, recs in records.items()}
        both_reach = reach["raes"] is not None and reach["raesc"] is not None
        if reach["rae"] is None:
            ok = both_reach
        else:
            ok = both_reach and reach["raes"] <= reach["rae"] / 3 and reach["raesc"] <= reach["rae"] / 3
        outcomes.append((seed, reach, ok))
        print(f"  seed {seed}: epochs-to-threshold {reach} -> {'ok' if ok else 'not ok'}")
    passes = sum(1 for _, _, ok in outcomes if ok)
    report(
        "criterion 4: convergence-speed ordering",
        passes >= 2,
        f"{passes}/3 seeds satisfy the ordering",
    )


@pytest.mark.slow
def test_criterion_5_epoch_time_ordering():
    """Median epoch time: raes < rae, and raesc within 1.25x of rae."""
    cfg = ExperimentConfig(
        variants=[ModelVariant("rae"), ModelVariant("raes"), ModelVariant("raesc")],
        n_features=4,
        seq_len=50,
        sigma=1.0,
        epochs=7,
        n_sequences=500,
        seed=2,
        **DESK,
    )
    results = run_experiment(cfg)
    med = {r.variant.kind: median_epoch_time(r.records) for r in results}
    ok = med["raes"] < med["rae"] and med["raesc"] <= 1.25 * med["rae"]
    report(
        "criterion 5: epoch-time ordering",
        ok,
        "median seconds " + ", ".join(f"{k}={v:.3f}" for k, v in med.items()),
    )


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "raeslab.cli", *args], capture_output=True, text=True)


def csv_without_timing(path):
    lines = path.read_text().splitlines()
    keep = [i for i, name in enumerate(lines[0].split(",")) if "time" not in name]
    return [tuple(ln.split(",")[i] for i in keep) for ln in lines]


def test_criterion_6_cli_determinism(tmp_path):
    """Two identical `raes-lab run` invocations agree byte-for-byte outside timing columns."""
    args = [
        "run", "--model", "all", "--features", "1", "--seq-len", "16", "--sigma", "1.0",
        "--epochs", "3", "--n-sequences", "60", "--batch-size", "12", "--seed", "9",
    ]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        proc = run_cli(*args, "--out", str(d))
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in dirs[0].iterdir() if p.suffix == ".csv")
    assert sorted(p.name for p in dirs[1].iterdir() if p.suffix == ".csv") == names
    same = all(
        csv_without_timing(dirs[0] / name) == csv_without_timing(dirs[1] / name) for name in names
    )
    report(
        "criterion 6: CLI determinism",
        same,
        f"{len(names)} CSV files identical outside timing columns",
    )


def test_criterion_7_adam_sanity():
    """First-step magnitude equals lr to 1e-8; the quadratic run converges.

    On f(t)=t^2 from t=1 at defaults, textbook Adam (verified independently
    against torch.optim.Adam) first brings |t| below 0.01 at step 2203.
    """
    p = Tensor(np.array([0.0]), requires_grad=True, name="p")
    state = AdamState([p])
    p.grad = np.array([1.0])
    state.step()
    first_ok = abs(p.data[0] + state.lr) < 1e-8

    theta = 1.0
    m = v = 0.0
    first_below = None
    for t in range(1, 2204):
        g = 2.0 * theta
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 1e-3 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        if abs(theta) < 0.01:
            first_below = t
            break
    # the same trajectory through the real optimizer
    q = Tensor(np.array([1.0]), requires_grad=True, name="q")
    qstate = AdamState([q])
    q_below = None
    for t in range(1, 2204):
        q.grad = 2.0 * q.data
        qstate.step()
        if abs(q.data[0]) < 0.01:
            q_below = t
            break
    report(
        "criterion 7: Adam sanity",
        first_ok and first_below == 2203 and q_below == 2203,
        f"|first step + lr| < 1e-8: {first_ok}; quadratic reaches 0.01 at step {q_below}",
    )


@pytest.mark.slow
def test_criterion_8_grid_smoke(tmp_path):
    """A reduced `raes-lab grid` completes with the right dash pattern and
    finite, improving losses."""
    out = tmp_path / "grid"
    proc = run_cli(
        "grid", "--features", "1,2", "--sigmas", "0.25,1.0", "--seq-len", "32",
        "--epochs", "5", "--n-sequences", "200", "--batch-size", "100", "--seed", "4",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr

    summary = (out / "summary.csv").read_text().splitlines()[1:]
    cells: dict[tuple[str, str], dict[str, list[str]]] = {}
    for line in summary:
        features, sigma, variant, _, final_val, epochs_run, reason = line.split(",", 6)
        cells.setdefault((features, sigma), {})[variant] = [final_val, epochs_run, reason]

    # context sizes: (1, .25) -> 8 and (2, .25) -> 16, neither a multiple of 32
    dash_ok = (
        cells[("1", "0.25")]["raes"][2] != ""
        and cells[("2", "0.25")]["raes"][2] != ""
        and cells[("1", "1")]["raes"][2] == ""
        and cells[("2", "1")]["raes"][2] == ""
    )

    finite_ok = True
    improving_ok = True
    for (features, sigma), variants in cells.items():
        improved_here = False
        for variant, (final_val, epochs_run, reason) in variants.items():
            if reason:
                continue
            name = f"f{features}_s{float(sigma) * 100:g}_{variant}.csv"
            rows = (out / name).read_text().splitlines()[1:]
            assert len(rows) == int(epochs_run)
            train = [float(r.split(",")[3]) for r in rows]
            val = [float(r.split(",")[4]) for r in rows]
            finite_ok = finite_ok and all(np.isfinite(train + val))
            improved_here = improved_here or (train[-1] < train[0] and val[-1] < val[0])
        improving_ok = improving_ok and improved_here

    report(
        "criterion 8: grid smoke",
        dash_ok and finite_ok and improving_ok,
        "dash pattern correct, losses finite, every cell has an improving variant",
    )
