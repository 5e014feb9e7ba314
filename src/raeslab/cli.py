"""Command line interface: single runs, the full benchmark grid, and gradcheck."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .gradcheck import default_suite
from .harness import (
    ExperimentConfig,
    cell_tag,
    format_summary_table,
    median_epoch_time,
    run_experiment,
    write_report,
)
from .models import VARIANT_KINDS, ModelVariant
from .optim import TrainingError

__all__ = ["main"]


def _variants(models_arg: str, kernel_size: int, pool_size: int, pool_stride: int | None) -> list[ModelVariant]:
    kinds = list(VARIANT_KINDS) if models_arg == "all" else [k.strip() for k in models_arg.split(",") if k.strip()]
    stride = pool_size if pool_stride is None else pool_stride
    return [ModelVariant(kind, kernel_size=kernel_size, pool_size=pool_size, pool_stride=stride) for kind in kinds]


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq-len", type=int, default=200, help="time steps per sequence")
    p.add_argument("--epochs", type=int, default=50, help="training epochs per variant")
    p.add_argument("--time-budget-s", type=float, default=None, help="stop a variant once its cumulative training time passes this")
    p.add_argument("--n-sequences", type=int, default=5000, help="dataset size before the 80:20 split")
    p.add_argument("--batch-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="base seed; data, split and per-variant init seeds derive from it")
    p.add_argument("--kernel-size", type=int, default=3, help="convolution kernel for raesc")
    p.add_argument("--pool-size", type=int, default=2, help="max-pool window for raesc")
    p.add_argument("--pool-stride", type=int, default=None, help="max-pool stride for raesc (default: pool size)")
    p.add_argument("--decoder-hidden", type=int, default=None, help="decoder hidden size (default: the context size)")
    p.add_argument("--lr", type=float, default=1e-3, help="Adam learning rate")
    p.add_argument("--components-per-feature", type=int, default=3, help="sinusoids summed per signal channel")
    p.add_argument("--out", type=Path, default=Path("raes-lab-out"), help="report directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raes-lab",
        description="Benchmark recurrent-autoencoder context decoding strategies on synthetic signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train chosen variants on one (features, sigma) cell")
    run_p.add_argument("--model", default="all", help="rae|raes|raesc|raes-stretch|all, or a comma list")
    run_p.add_argument("--features", type=int, default=1, help="signal channels per time step")
    run_p.add_argument("--sigma", type=float, default=1.0, help="context size ratio")
    _add_training_flags(run_p)

    grid_p = sub.add_parser("grid", help="run every (features, sigma) cell of a benchmark grid")
    grid_p.add_argument("--features", default="1,2,4,8", help="comma list of feature counts")
    grid_p.add_argument("--sigmas", default="0.25,0.5,1.0", help="comma list of context ratios")
    grid_p.add_argument("--models", default="rae,raes,raesc", help="comma list of variants, or 'all'")
    _add_training_flags(grid_p)

    check_p = sub.add_parser("gradcheck", help="finite-difference check of every differentiable block")
    check_p.add_argument("--instances", type=int, default=10, help="random instances per check")
    check_p.add_argument("--seed", type=int, default=2024)
    return parser


def _experiment_config(args, variants, features: int, sigma: float) -> ExperimentConfig:
    return ExperimentConfig(
        variants=variants,
        n_features=features,
        seq_len=args.seq_len,
        sigma=sigma,
        epochs=args.epochs,
        time_budget_s=args.time_budget_s,
        batch_size=args.batch_size,
        seed=args.seed,
        n_sequences=args.n_sequences,
        components_per_feature=args.components_per_feature,
        lr=args.lr,
        decoder_hidden=args.decoder_hidden,
    )


def _cmd_run(args) -> int:
    variants = _variants(args.model, args.kernel_size, args.pool_size, args.pool_stride)
    results = run_experiment(_experiment_config(args, variants, args.features, args.sigma))
    write_report(results, args.out)
    for res in results:
        if res.skipped:
            print(f"{res.variant.kind}: skipped ({res.skipped_reason})")
        else:
            print(
                f"{res.variant.kind}: {len(res.records)} epochs, "
                f"median epoch {median_epoch_time(res.records):.4g}s, "
                f"final val MSE {res.records[-1].val_mse:.6g}"
            )
    print(f"report written to {args.out}")
    return 0


def _grid_axis(arg: str, flag: str, convert) -> list:
    values = [convert(x) for x in arg.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{flag} lists no values; name at least one")
    return values


def _cmd_grid(args) -> int:
    variants = _variants(args.models, args.kernel_size, args.pool_size, args.pool_stride)
    features = _grid_axis(args.features, "--features", int)
    sigmas = _grid_axis(args.sigmas, "--sigmas", float)
    # every cell's config is built, and so checked, before the first one trains
    cells = [_experiment_config(args, variants, nf, sigma) for nf in features for sigma in sigmas]
    tags = [cell_tag(cfg.n_features, cfg.sigma) for cfg in cells]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ValueError(f"grid lists cell {tag} twice; its CSV files would collide")
    all_results = []
    for cfg in cells:
        cell = run_experiment(cfg)
        all_results.extend(cell)
        done = ", ".join(
            f"{r.variant.kind}=-" if r.skipped else f"{r.variant.kind}={median_epoch_time(r.records):.4g}s"
            for r in cell
        )
        print(f"features={cfg.n_features} sigma={cfg.sigma:g}: {done}")
    write_report(all_results, args.out)
    print()
    print(format_summary_table(all_results), end="")
    print(f"report written to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = default_suite(instances=args.instances, seed=args.seed)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:<18} max relative error {res.max_error:.3e} (tolerance {res.tolerance:g})")
        failed = failed or not res.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "grid":
            return _cmd_grid(args)
        return _cmd_gradcheck(args)
    except ValueError as exc:
        # out-of-range flag values surface here; report them like argparse does
        print(f"raes-lab: error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        # a diverging run (non-finite loss or gradient) is a failed run, not a bad flag
        print(f"raes-lab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
