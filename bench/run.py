"""Benchmark of raeslab training speed on three fixed cells.

    python3 bench/run.py --workload desk-f4-T50 --seed 1 --seconds 36 --trace 0

Each run is one closed loop in one process: the variants of the workload
train one after another, an epoch each in turn, through the public
``raeslab.harness.train_epoch`` for at least the workload's fixed epoch count
and then for as many more epochs as fit in ``--seconds``. With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it repeats the training
untraced and then with timing spans around the public functions of
``raeslab.data``, ``models``, ``layers``, ``optim`` and ``tensor`` (see
``spans.py``) and prints the per-layer metrics. The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

raeslab is imported from the ``src`` directory next to this one and nowhere
else; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS threads are pinned to the cores this process may use, before numpy
# loads OpenBLAS. One thread runs the GRU phases 15-25% slower than two.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import EVALUATE, TRACED, Spans  # noqa: E402

VARIANTS = ("rae", "raes", "raesc", "raes-stretch")
# raes-stretch cannot run on desk-f4-T50 (its context is longer than the
# sequence), so the declared metrics cover the variants every workload runs;
# raes-stretch figures are printed in the report lines only.
DECLARED_VARIANTS = ("rae", "raes", "raesc")
SETUP_REPEATS = 25
# evaluate calls after each epoch, besides the one inside train_epoch
EVAL_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    """One training cell. ``epochs`` is the fixed epoch count: every run
    trains at least this many, and val_mse and the loss checks read it."""

    n_features: int
    seq_len: int
    sigma: float
    n_sequences: int
    epochs: int
    lr: float = 1.5e-2
    batch_size: int = 100
    why: str = ""


WORKLOADS = {
    "desk-f4-T50": Workload(
        4, 50, 1.0, 500, 4,
        why="criterion-5 cell: 200-wide gate GEMMs over 50 steps, 4 batches an epoch; GRU math dominates",
    ),
    # At lr 1.5e-2 no variant learns here within the few steps a run can
    # afford (rae's loss jumps ~50x after the first Adam step), so the
    # decreasing-loss check could not hold; lr 1e-4 descends on every seed.
    # The learning rate does not change the work an epoch does.
    "paper-f1-T200": Workload(
        1, 200, 1.0, 125, 3, lr=1e-4,
        why="paper geometry: same GEMM size as desk over 200 steps, one batch an epoch; tape size and BPTT depth dominate",
    ),
    "tiny-f4-T50": Workload(
        4, 50, 0.25, 500, 4,
        why="50-wide GRU with desk's tape record count: interpreter and tape overhead dominate",
    ),
}

UNITS = {
    "epoch_s": "s", "eval_s": "s", "val_mse": "MSE", "setup_s": "s", "peak_rss_mb": "MB",
    "data.generate_s": "s", "data.batches_s": "s",
    "models.encode_s": "s", "models.context_s": "s", "models.decode_s": "s",
    "layers.gru_forward_s": "s", "layers.head_s": "s", "layers.conv1d_s": "s", "layers.maxpool1d_s": "s",
    "optim.mse_s": "s", "optim.adam_s": "s", "tensor.backward_s": "s",
    "layers.gru_gflop_per_batch": "GFLOP", "tensor.records_per_batch": "count",
    "tensor.step_records_per_batch": "count", "trace.overhead_s": "s",
}
PER_VARIANT_SPANS = (
    "models.encode", "models.context", "models.decode", "layers.gru_forward",
    "layers.head", "optim.mse", "optim.adam", "tensor.backward",
)
RAESC_SPANS = ("layers.conv1d", "layers.maxpool1d")
# the spans that partition a training epoch; the report gives their share of it
EPOCH_SPANS = ("models.encode", "models.context", "models.decode", "optim.mse", "tensor.backward", "optim.adam")


def metric_names(trace: bool) -> list[str]:
    """Declared end-to-end (trace off) or per-layer (trace on) metric names."""
    variants = DECLARED_VARIANTS
    if not trace:
        return ["setup_s", "peak_rss_mb"] + [f"{f}.{v}" for v in variants for f in ("epoch_s", "eval_s", "val_mse")]
    per_variant = [f"{s}_s" for s in PER_VARIANT_SPANS] + [
        "layers.gru_gflop_per_batch", "tensor.records_per_batch", "tensor.step_records_per_batch", "trace.overhead_s",
    ]
    names = ["data.generate_s", "data.batches_s"] + [f"{f}.{v}" for v in variants for f in per_variant]
    return names + [f"{s}_s.raesc" for s in RAESC_SPANS]


def unit(name: str) -> str:
    return UNITS.get(name) or UNITS[name.rsplit(".", 1)[0]]


class BenchError(RuntimeError):
    """The benchmark cannot run here (no raeslab source to build from)."""


def _raeslab_keys() -> list[str]:
    return [k for k in sys.modules if k == "raeslab" or k.startswith("raeslab.")]


def import_raeslab():
    """Import raeslab from ``src`` beside the benchmark."""
    if not (SRC / "raeslab" / "__init__.py").is_file():
        raise BenchError(f"no raeslab source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rl = importlib.import_module("raeslab")
    for sub in ("data", "harness", "layers", "models", "optim", "tensor"):
        importlib.import_module(f"raeslab.{sub}")
    if SRC not in Path(rl.__file__).resolve().parents:
        raise BenchError(f"raeslab was imported from {rl.__file__}, not from {SRC}")
    return rl


def timed_setup(wl: Workload, seed: int) -> float:
    """Seconds to import raeslab afresh, make the dataset and build every
    model. The modules loaded before come back afterwards, so a training in
    progress keeps running on the ones it was built from."""
    live = {k: sys.modules.pop(k) for k in _raeslab_keys()}
    try:
        start = time.perf_counter()
        rl = import_raeslab()
        set_up(rl, experiment_config(rl, wl, seed))
        return time.perf_counter() - start
    finally:
        for k in _raeslab_keys():
            del sys.modules[k]
        sys.modules.update(live)


class SetupSampler:
    """Up to ``SETUP_REPEATS`` set-up times, spread evenly over a run so that
    the median does not hang on the machine's speed in one second."""

    def __init__(self, wl: Workload, seed: int, seconds: float):
        self.wl, self.seed = wl, seed
        self.interval = seconds / SETUP_REPEATS
        self.due = time.perf_counter()
        self.times: list[float] = []

    def __call__(self) -> None:
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= self.due:
            self.times.append(timed_setup(self.wl, self.seed))
            self.due = time.perf_counter() + self.interval


@dataclass
class VariantRun:
    kind: str
    model: object
    adam: object
    records: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # per epoch: {(phase, span): seconds}
    probes: list = field(default_factory=list)  # per epoch: {(phase, span): [values]}
    error: str | None = None
    epoch_cost: float = 0.0  # seconds the last epoch and its validation took


@dataclass
class Training:
    """One training of every feasible variant of a workload."""

    runs: dict
    skipped: dict
    attempted: int = 0
    failed: set = field(default_factory=set)  # (kind, epoch) of failed operations
    notes: list = field(default_factory=list)


def experiment_config(rl, wl: Workload, seed: int):
    return rl.harness.ExperimentConfig(
        variants=[rl.models.ModelVariant(k) for k in VARIANTS],
        n_features=wl.n_features,
        seq_len=wl.seq_len,
        sigma=wl.sigma,
        epochs=wl.epochs,
        batch_size=wl.batch_size,
        seed=seed,
        n_sequences=wl.n_sequences,
        components_per_feature=1,
        lr=wl.lr,
    )


def set_up(rl, cfg):
    """Dataset, split and one model + optimizer per feasible variant, exactly
    as ``run_experiment`` derives them from ``cfg.seed``."""
    h, m = rl.harness, rl.models
    data_cfg = rl.data.SignalConfig(
        n_sequences=cfg.n_sequences,
        seq_len=cfg.seq_len,
        n_features=cfg.n_features,
        components_per_feature=cfg.components_per_feature,
        seed=h.derive_seed(cfg.seed, "data"),
    )
    dataset = rl.data.shuffle_split(rl.data.generate_dataset(data_cfg), h.derive_seed(cfg.seed, "split"))
    context = m.ContextSpec.autoencoding(cfg.seq_len, cfg.n_features, cfg.sigma)
    runs, skipped = {}, {}
    for variant in cfg.variants:
        reason = m.infeasibility_reason(variant, context)
        if reason is not None:
            skipped[variant.kind] = reason
            continue
        rng = np.random.default_rng(h.derive_seed(cfg.seed, variant.kind))
        model = m.AutoencoderModel.build(variant, context, rng, cfg.decoder_hidden)
        runs[variant.kind] = VariantRun(variant.kind, model, rl.optim.AdamState(model.parameters(), lr=cfg.lr))
    return dataset, Training(runs, skipped)


def train(rl, cfg, dataset, run: Training, seconds: float, spans: Spans, after_epoch=None) -> None:
    """Round-robin epochs over the variants. Each trains ``cfg.epochs``
    epochs, then more while its next epoch, started now, should end before
    the deadline.

    Every epoch is followed by ``EVAL_REPEATS`` more ``evaluate`` calls on
    the val split, which give eval_s more samples; each must return the val
    MSE the epoch reported. ``after_epoch`` runs between epochs, outside
    their timing.
    """
    deadline = time.perf_counter() + seconds
    active = list(run.runs.values())
    epoch = 0
    while active:
        for vr in list(active):
            start = time.perf_counter()
            if epoch >= cfg.epochs and start + vr.epoch_cost > deadline:
                active.remove(vr)
                continue
            run.attempted += 1
            spans.reset()
            spans.phase = "train"
            try:
                rec = rl.harness.train_epoch(vr.model, dataset, vr.adam, cfg.batch_size, epoch=epoch)
                in_epoch = spans.time.get(("train", "eval"))  # None if train_epoch stops validating
                vals = []
                for _ in range(EVAL_REPEATS):
                    t = time.perf_counter()
                    vals.append(rl.harness.evaluate(vr.model, dataset, "val", cfg.batch_size))
                    vr.eval_s.append(time.perf_counter() - t)
            except rl.optim.TrainingError as exc:
                vr.error = str(exc)
                run.failed.add((vr.kind, epoch))
                active.remove(vr)
                continue
            finally:
                spans.phase = None
            if in_epoch is None:
                rec.val_mse = vals[0]
            else:
                vr.eval_s.append(in_epoch)
            if any(v != rec.val_mse for v in vals):
                run.failed.add((vr.kind, epoch))
                run.notes.append(f"{vr.kind}: evaluate gave {vals!r} after epoch {epoch}, the epoch reported {rec.val_mse!r}")
            vr.records.append(rec)
            vr.spans.append(dict(spans.time))
            vr.probes.append({k: list(v) for k, v in spans.probed.items()})
            vr.epoch_cost = time.perf_counter() - start
            if after_epoch is not None:
                after_epoch()
        epoch += 1


def check(cfg, run: Training) -> None:
    """Finite losses, and train MSE at the fixed epoch below the first epoch's."""
    for vr in run.runs.values():
        if vr.error is not None:
            run.notes.append(f"{vr.kind}: {vr.error}")
            continue
        for rec in vr.records:
            if not (math.isfinite(rec.train_mse) and math.isfinite(rec.val_mse)):
                run.failed.add((vr.kind, rec.epoch))
                run.notes.append(f"{vr.kind}: non-finite MSE at epoch {rec.epoch}")
        first, fixed = vr.records[0].train_mse, vr.records[cfg.epochs - 1].train_mse
        run.notes.append(f"{vr.kind}: train MSE {first!r} at epoch 0, {fixed!r} at epoch {cfg.epochs - 1}")
        if not fixed < first:
            run.failed.add((vr.kind, cfg.epochs - 1))
            run.notes.append(f"{vr.kind}: train MSE {fixed!r} at epoch {cfg.epochs - 1} is not below epoch 0's {first!r}")


def compare_losses(untraced: Training, traced: Training) -> None:
    """The traced run's per-epoch losses must equal the untraced run's bit for bit."""
    for kind, vr in traced.runs.items():
        plain = untraced.runs[kind].records
        for a, b in zip(plain, vr.records):
            if (a.train_mse, a.val_mse) != (b.train_mse, b.val_mse):
                traced.failed.add((kind, b.epoch))
                traced.notes.append(
                    f"{kind}: traced losses differ at epoch {b.epoch}: "
                    f"{(b.train_mse, b.val_mse)!r} vs {(a.train_mse, a.val_mse)!r}"
                )


def median(values):
    return float(statistics.median(values))


def end_to_end(cfg, run: Training, setup_times) -> dict:
    out = {"setup_s": median(setup_times)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for kind, vr in run.runs.items():
        if len(vr.records) >= cfg.epochs:
            out[f"epoch_s.{kind}"] = median([r.epoch_wall_time_s for r in vr.records])
            out[f"eval_s.{kind}"] = median(vr.eval_s)
            out[f"val_mse.{kind}"] = vr.records[cfg.epochs - 1].val_mse
    return out


def per_layer(traced: Training, untraced: Training, generate_s: float | None) -> dict:
    """Medians over the traced epochs; a span that never ran is left out."""
    out = {} if generate_s is None else {"data.generate_s": generate_s}
    epochs = [ep for vr in traced.runs.values() for ep in vr.spans]
    if any(("train", "data.batches") in ep for ep in epochs):
        out["data.batches_s"] = median(
            [ep.get(("train", "data.batches"), 0.0) + ep.get(("eval", "data.batches"), 0.0) for ep in epochs]
        )
    for kind, vr in traced.runs.items():
        if not vr.records:
            continue
        for s in PER_VARIANT_SPANS + (RAESC_SPANS if kind == "raesc" else ()):
            if any(("train", s) in ep for ep in vr.spans):
                out[f"{s}_s.{kind}"] = median([ep.get(("train", s), 0.0) for ep in vr.spans])
        tapes = [c for ep in vr.probes for c in ep.get(("train", "tensor.backward"), [])]
        if tapes:
            out[f"tensor.records_per_batch.{kind}"] = median([c[0] for c in tapes])
            out[f"tensor.step_records_per_batch.{kind}"] = median([c[1] for c in tapes])
            gflop = sum(g for ep in vr.probes for g in ep.get(("train", "layers.gru_forward"), []))
            if gflop:
                out[f"layers.gru_gflop_per_batch.{kind}"] = gflop / len(tapes)
        epoch_s = median([r.epoch_wall_time_s for r in vr.records])
        plain = untraced.runs[kind].records
        if plain:
            out[f"trace.overhead_s.{kind}"] = epoch_s - median([r.epoch_wall_time_s for r in plain])
        covered = sum(out.get(f"{s}_s.{kind}", 0.0) for s in EPOCH_SPANS)
        traced.notes.append(f"{kind}: spans cover {covered / epoch_s:.1%} of the traced epoch_s {epoch_s:.4f} s")
    return out


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).resolve().parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    spans = Spans()
    rl = import_raeslab()
    cfg = experiment_config(rl, wl, seed)
    setup = SetupSampler(wl, seed, seconds)
    if not trace:
        setup()
    dataset, untraced = set_up(rl, cfg)
    passes = [untraced]
    spans.install([EVALUATE])
    try:
        train(rl, cfg, dataset, untraced, seconds / 2 if trace else seconds, spans, None if trace else setup)
        check(cfg, untraced)
        if trace:
            spans.install(TRACED)
            spans.phase = "setup"
            dataset, traced = set_up(rl, cfg)
            spans.phase = None
            generate_s = spans.time.get(("setup", "data.generate"))
            passes.append(traced)
            train(rl, cfg, dataset, traced, seconds / 2, spans)
            check(cfg, traced)
            compare_losses(untraced, traced)
            values = per_layer(traced, untraced, generate_s)
        else:
            values = end_to_end(cfg, untraced, setup.times)
    finally:
        spans.uninstall()

    lines = [f"environment {json.dumps(environment(), sort_keys=True)}"]
    lines += [f"skipped {kind}: {reason}" for kind, reason in untraced.skipped.items()]
    for p in passes:
        lines += [f"epochs {kind}: {len(vr.records)}" for kind, vr in p.runs.items()]
        lines += [f"check {note}" for note in p.notes]
    lines += [f"absent span {target}" for target in spans.absent]
    lines += [f"{name} = {value!r} {unit(name)}" for name, value in values.items()]

    declared = metric_names(trace)
    failed = sum(len(p.failed) for p in passes)
    result = {
        # a per-layer metric may be absent after a refactor; an end-to-end one may not
        "correct": failed == 0 and (trace or all(name in values for name in declared)),
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit(name)} for name in declared if name in values},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
