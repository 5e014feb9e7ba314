"""Command line interface: one (features, sigma) cell, the full benchmark grid, and gradcheck."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .gradcheck import TOLERANCE, default_suite
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


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a flag left out stays out of the namespace, so the library's default applies
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        # one line, like every other bad flag value; --help still shows the usage
        self.exit(2, f"raes-lab: error: {message}\n")


def _add_training_flags(p: argparse.ArgumentParser) -> None:
    # every dest but --out's is the ExperimentConfig or ModelVariant field it sets
    p.add_argument("--seq-len", type=int, help="time steps per sequence")
    p.add_argument("--epochs", type=int, help="training epochs per variant")
    p.add_argument("--time-budget-s", type=float, help="stop a variant once its cumulative training time passes this")
    p.add_argument("--n-sequences", type=int, help="dataset size before the 80:20 split")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int, help="base seed; data, split and per-variant init seeds derive from it")
    p.add_argument("--kernel-size", type=int, help="convolution kernel for raesc")
    p.add_argument("--pool-size", type=int, help="max-pool window for raesc")
    p.add_argument("--pool-stride", type=int, help="max-pool stride for raesc (default: pool size)")
    p.add_argument("--decoder-hidden", type=int, help="decoder hidden size (default: the context size)")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--components-per-feature", type=int, help="sinusoids summed per signal channel")
    p.add_argument("--out", type=Path, default=Path("raes-lab-out"), help="report directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="raes-lab",
        description="Benchmark recurrent-autoencoder context decoding strategies on synthetic signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="train chosen variants on one (features, sigma) cell")
    run_p.add_argument(
        "--model", dest="models", metavar="MODEL", default="all", help="rae|raes|raesc|raes-stretch|all, or a comma list"
    )
    run_p.add_argument(
        "--features", dest="n_features", metavar="FEATURES", type=int, help="signal channels per time step"
    )
    run_p.add_argument("--sigma", type=float, help="context size ratio")
    _add_training_flags(run_p)

    grid_p = sub.add_parser("grid", help="run every (features, sigma) cell of a benchmark grid")
    grid_p.add_argument("--features", default="1,2,4,8", help="comma list of feature counts")
    grid_p.add_argument("--sigmas", default="0.25,0.5,1.0", help="comma list of context ratios")
    grid_p.add_argument("--models", default="rae,raes,raesc", help="comma list of variants, or 'all'")
    _add_training_flags(grid_p)

    check_p = sub.add_parser("gradcheck", help="finite-difference check of every differentiable block")
    check_p.add_argument("--instances", type=int, help="random instances per check")
    check_p.add_argument("--seed", type=int)
    return parser


def _given(args, cls) -> dict:
    """The flags given for fields of ``cls``; a field without one keeps its default."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _axis(arg: str, flag: str, convert) -> list:
    values = []
    for x in filter(str.strip, arg.split(",")):
        try:
            values.append(convert(x))
        except ValueError:
            raise ValueError(f"{flag}: invalid {convert.__name__} value {x.strip()!r}") from None
    if not values:
        raise ValueError(f"{flag} lists no values; name at least one")
    return values


def _cells(args) -> list[ExperimentConfig]:
    """`run`'s one cell, or every (features, sigma) cell of `grid`."""
    kinds = list(VARIANT_KINDS) if args.models == "all" else [k.strip() for k in args.models.split(",") if k.strip()]
    variants = [ModelVariant(kind, **_given(args, ModelVariant)) for kind in kinds]
    given = _given(args, ExperimentConfig)
    if args.command == "run":
        return [ExperimentConfig(variants, **given)]
    features = _axis(args.features, "--features", int)
    sigmas = _axis(args.sigmas, "--sigmas", float)
    return [ExperimentConfig(variants, n_features=nf, sigma=sigma, **given) for nf in features for sigma in sigmas]


def _check_out(out: Path) -> None:
    """Fail before any training if the report directory cannot be made."""
    # a dangling symlink exists for mkdir too
    existing = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not existing.is_dir():
        raise ValueError(f"--out {out}: {existing} is not a directory")


def _train(args) -> int:
    """Train the cells in order, printing each as it ends, then write one report."""
    _check_out(args.out)
    # every cell's config is built, and so checked, before the first one trains
    cells = _cells(args)
    tags = [cell_tag(cfg.n_features, cfg.sigma) for cfg in cells]
    for tag in tags:
        if tags.count(tag) > 1:
            raise ValueError(f"grid lists cell {tag} twice; its CSV files would collide")
    all_results = []
    for cfg in cells:
        cell = run_experiment(cfg)
        all_results.extend(cell)
        print(f"features={cfg.n_features} sigma={cfg.sigma:g}:")
        for res in cell:
            if res.skipped:
                print(f"  {res.variant.kind}: skipped ({res.skipped_reason})")
            else:
                print(
                    f"  {res.variant.kind}: {len(res.records)} epochs, "
                    f"median epoch {median_epoch_time(res.records):.4g}s, "
                    f"final val MSE {res.records[-1].val_mse:.6g}"
                )
    write_report(all_results, args.out)
    print()
    print(format_summary_table(all_results), end="")
    print(f"report written to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    given = {k: v for k, v in vars(args).items() if k != "command"}
    if given.get("seed", 0) < 0:
        # numpy seeds take non-negative integers only
        raise ValueError(f"--seed must be a non-negative integer, got {given['seed']}")
    results = default_suite(**given)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name:<18} max relative error {res.max_error:.3e} (tolerance {TOLERANCE:g})")
        failed = failed or not res.passed
    return 1 if failed else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            return _cmd_gradcheck(args)
        return _train(args)
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
