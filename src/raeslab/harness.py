"""Training loop, experiment grid runner and CSV reporting.

One experiment trains several decoding variants on the identical dataset,
split and batch order; only the model structure and each variant's own
parameter draws differ. Epoch wall time covers the training pass only,
validation is excluded (noted in the report header).
"""

from __future__ import annotations

import csv
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, SignalConfig, batches, generate_dataset, shuffle_split
from .models import (
    VARIANT_KINDS,
    AutoencoderModel,
    ContextSpec,
    ModelVariant,
    infeasibility_reason,
)
from .optim import AdamState, TrainingError, mse_loss
from .tensor import Tape, backward, zero_grads

__all__ = [
    "ExperimentConfig",
    "EpochRecord",
    "VariantResult",
    "derive_seed",
    "train_epoch",
    "evaluate",
    "run_experiment",
    "median_epoch_time",
    "write_report",
    "read_records_csv",
    "records_csv_name",
    "cell_tag",
]

RECORD_FIELDS = ("epoch", "epoch_wall_time_s", "cumulative_time_s", "train_mse", "val_mse")
SUMMARY_FIELDS = ("features", "sigma", "variant", "median_epoch_time_s", "final_val_mse", "epochs_run", "skipped_reason")


@dataclass
class EpochRecord:
    epoch: int
    train_mse: float
    val_mse: float
    epoch_wall_time_s: float
    cumulative_time_s: float


@dataclass
class ExperimentConfig:
    """Everything one experiment cell needs; seeds for data, split and each
    variant's init are all derived from the single base seed."""

    variants: list[ModelVariant]
    n_features: int = 1
    seq_len: int = 200
    sigma: float = 1.0
    epochs: int = 50
    time_budget_s: float | None = None
    batch_size: int = 100
    seed: int = 0
    n_sequences: int = 5000
    components_per_feature: int = 3
    lr: float = 1e-3
    decoder_hidden: int | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr}")
        if self.time_budget_s is not None and not self.time_budget_s > 0:
            raise ValueError(f"time_budget_s must be > 0, got {self.time_budget_s}")
        if self.decoder_hidden is not None and self.decoder_hidden < 1:
            raise ValueError(f"decoder_hidden must be >= 1, got {self.decoder_hidden}")
        kinds = [v.kind for v in self.variants]
        if not kinds:
            raise ValueError("the variant list is empty; name at least one variant to train")
        if len(set(kinds)) < len(kinds):
            raise ValueError(f"variants {','.join(kinds)} list one kind twice; its runs would share one CSV file")
        # rejects a bad sigma or size when the config is built, not when it runs
        ContextSpec.autoencoding(self.seq_len, self.n_features, self.sigma)


@dataclass
class VariantResult:
    variant: ModelVariant
    context: ContextSpec
    records: list[EpochRecord] = field(default_factory=list)
    skipped_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


def derive_seed(base_seed: int, label: str) -> int:
    """Stable 64-bit stream id for one role (data, split, a variant's init)."""
    digest = hashlib.sha256(f"{base_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def evaluate(model: AutoencoderModel, dataset: Dataset, which: str, batch_size: int) -> float:
    """Full-split reconstruction MSE; forward passes only, no tape, no updates."""
    total_sq = 0.0
    total_n = 0
    for xb in batches(dataset, which, batch_size):
        diff = model.forward(xb).data - xb.data
        # a diverged model overflows here; train_epoch raises on the result
        with np.errstate(over="ignore", invalid="ignore"):
            total_sq += float((diff * diff).sum())
        total_n += diff.size
    return total_sq / total_n


def train_epoch(
    model: AutoencoderModel,
    dataset: Dataset,
    adam: AdamState,
    batch_size: int,
    *,
    epoch: int = 0,
    cumulative_start: float = 0.0,
) -> EpochRecord:
    """One optimizer pass over the train split followed by a validation pass.

    The target of every batch is the batch itself (reconstruction). Wall time
    is measured around the training pass only. An empty train split raises
    ValueError rather than averaging no losses into NaN, and a non-finite
    training loss or validation MSE raises TrainingError.
    """
    params = model.parameters()
    train_batches = batches(dataset, "train", batch_size)
    if not train_batches:
        raise ValueError(
            f"the train split is empty ({len(dataset.train_indices)} of "
            f"{dataset.n_sequences} sequences); use more sequences"
        )
    batch_losses = []
    start = time.perf_counter()
    for bi, xb in enumerate(train_batches):
        with Tape() as tape:
            # overflow shows as a non-finite loss, reported below as one error
            with np.errstate(over="ignore", invalid="ignore"):
                loss = mse_loss(model.forward(xb), xb)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"non-finite training loss at epoch {epoch}, batch {bi}")
            zero_grads(params)
            backward(tape, loss)
        adam.step()
        batch_losses.append(value)
    wall = time.perf_counter() - start
    val = evaluate(model, dataset, "val", batch_size)
    if not np.isfinite(val):
        raise TrainingError(f"non-finite validation MSE at epoch {epoch}")
    return EpochRecord(
        epoch=epoch,
        train_mse=float(np.mean(batch_losses)),
        val_mse=val,
        epoch_wall_time_s=wall,
        cumulative_time_s=cumulative_start + wall,
    )


def _run_variant(cfg: ExperimentConfig, context: ContextSpec, dataset: Dataset, variant: ModelVariant) -> VariantResult:
    reason = infeasibility_reason(variant, context)
    if reason is not None:
        return VariantResult(variant, context, [], reason)
    rng = np.random.default_rng(derive_seed(cfg.seed, variant.kind))
    model = AutoencoderModel.build(variant, context, rng, cfg.decoder_hidden)
    adam = AdamState(model.parameters(), lr=cfg.lr)
    records: list[EpochRecord] = []
    cumulative = 0.0
    for e in range(cfg.epochs):
        rec = train_epoch(model, dataset, adam, cfg.batch_size, epoch=e, cumulative_start=cumulative)
        records.append(rec)
        cumulative = rec.cumulative_time_s
        if cfg.time_budget_s is not None and cumulative >= cfg.time_budget_s:
            break
    return VariantResult(variant, context, records, None)


def run_experiment(cfg: ExperimentConfig) -> list[VariantResult]:
    """Train every requested variant on one shared dataset and split.

    Infeasible variants come back as skipped results with the reason, not an
    error. Variants train one after another so their epoch timings do not
    contend.
    """
    data_cfg = SignalConfig(
        n_sequences=cfg.n_sequences,
        seq_len=cfg.seq_len,
        n_features=cfg.n_features,
        components_per_feature=cfg.components_per_feature,
        seed=derive_seed(cfg.seed, "data"),
    )
    dataset = shuffle_split(generate_dataset(data_cfg), derive_seed(cfg.seed, "split"))
    context = ContextSpec.autoencoding(cfg.seq_len, cfg.n_features, cfg.sigma)
    return [_run_variant(cfg, context, dataset, v) for v in cfg.variants]


def median_epoch_time(records: list[EpochRecord]) -> float:
    """Median of per-epoch wall times (mean of the middle two for even counts)."""
    if not records:
        raise ValueError("median_epoch_time needs at least one record")
    return float(statistics.median(r.epoch_wall_time_s for r in records))


def cell_tag(n_features: int, sigma: float) -> str:
    """The (features, sigma) part of a cell's CSV names, sigma as a percent to 6 significant digits."""
    return f"f{n_features}_s{format(sigma * 100.0, 'g')}"


def records_csv_name(result: VariantResult) -> str:
    return f"{cell_tag(result.context.n_features, result.context.sigma)}_{result.variant.kind}.csv"


def _fmt(x: float) -> str:
    return format(x, ".9g")


def _summary_row(res: VariantResult) -> list:
    head = [res.context.n_features, _fmt(res.context.sigma), res.variant.kind]
    if res.skipped:
        return head + ["", "", 0, res.skipped_reason]
    return head + [_fmt(median_epoch_time(res.records)), _fmt(res.records[-1].val_mse), len(res.records), ""]


def _write_csv(path: Path, header, rows) -> None:
    """One header line, then one line per row, each ending in a bare newline."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report(results: list[VariantResult], out_dir) -> None:
    """Per-variant epoch CSVs plus a machine summary CSV and an aligned text table.

    Skipped variants appear as '-' cells in the table and as summary rows with
    a reason; they get no per-epoch file.
    """
    if not results:
        raise ValueError("write_report needs at least one result")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    for res in results:
        if not res.skipped:
            rows = (
                [r.epoch, _fmt(r.epoch_wall_time_s), _fmt(r.cumulative_time_s), _fmt(r.train_mse), _fmt(r.val_mse)]
                for r in res.records
            )
            _write_csv(out / records_csv_name(res), RECORD_FIELDS, rows)
    _write_csv(out / "summary.csv", SUMMARY_FIELDS, (_summary_row(res) for res in results))
    (out / "summary.txt").write_text(format_summary_table(results))


def format_summary_table(results: list[VariantResult]) -> str:
    """Median epoch times as rows of (features, sigma) with one variant per column."""
    kinds = [k for k in VARIANT_KINDS if any(r.variant.kind == k for r in results)]
    cells: dict[tuple[int, float, str], str] = {}
    for res in results:
        key = (res.context.n_features, res.context.sigma, res.variant.kind)
        cells[key] = "-" if res.skipped else format(median_epoch_time(res.records), ".4g")
    rows = sorted({(r.context.n_features, r.context.sigma) for r in results})

    header = ["features", "sigma"] + list(kinds)
    table = [header]
    for nf, sigma in rows:
        row = [str(nf), f"{sigma * 100:g}%"]
        row += [cells.get((nf, sigma, k), "-") for k in kinds]
        table.append(row)
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    lines = [
        "Median epoch time [s] per (features, sigma, variant).",
        "epoch_wall_time_s covers the training pass only; validation is excluded.",
        "'-' marks variant/context combinations that are infeasible.",
        "",
    ]
    for r in table:
        lines.append("  ".join(val.rjust(w) for val, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def read_records_csv(path) -> list[EpochRecord]:
    """Load a per-variant epoch CSV written by :func:`write_report`."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != RECORD_FIELDS:
            raise ValueError(f"{path}: unexpected header {header}")
        records = []
        for line in fh:
            epoch, wall, cum, train, val = line.strip().split(",")
            records.append(
                EpochRecord(int(epoch), float(train), float(val), float(wall), float(cum))
            )
    return records
