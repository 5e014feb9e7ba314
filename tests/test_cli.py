"""Command line surface: flags, outputs, determinism, exit codes."""

import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from raeslab import cli
from raeslab.harness import ExperimentConfig, VariantResult
from raeslab.models import VARIANT_KINDS, ContextSpec, ModelVariant

BASE_RUN = [
    "--features", "1",
    "--seq-len", "12",
    "--sigma", "1.0",
    "--epochs", "2",
    "--n-sequences", "40",
    "--batch-size", "8",
    "--seed", "3",
]


def raes_lab(*args):
    return subprocess.run(
        [sys.executable, "-m", "raeslab.cli", *args],
        capture_output=True,
        text=True,
    )


def non_timing_content(csv_path: Path) -> list[tuple[str, ...]]:
    """CSV rows with wall-clock columns dropped, as raw strings."""
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if "time" not in name]
    return [tuple(ln.split(",")[i] for i in keep) for ln in lines]


class TestRun:
    def test_writes_per_variant_csvs_and_summary(self, tmp_path):
        out = tmp_path / "report"
        proc = raes_lab("run", "--model", "all", *BASE_RUN, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "summary.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "f1_s100_rae.csv").exists()
        assert (out / "f1_s100_raes.csv").exists()
        assert (out / "f1_s100_raesc.csv").exists()
        assert (out / "f1_s100_raes-stretch.csv").exists()
        header = (out / "f1_s100_rae.csv").read_text().splitlines()[0]
        assert header == "epoch,epoch_wall_time_s,cumulative_time_s,train_mse,val_mse"

    def test_single_model_selection(self, tmp_path):
        out = tmp_path / "report"
        proc = raes_lab("run", "--model", "raes", *BASE_RUN, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "f1_s100_raes.csv").exists()
        assert not (out / "f1_s100_rae.csv").exists()

    def test_infeasible_variant_reported_as_skipped(self, tmp_path):
        out = tmp_path / "report"
        proc = raes_lab(
            "run", "--model", "raes", "--features", "1", "--seq-len", "12",
            "--sigma", "0.25", "--epochs", "1", "--n-sequences", "20",
            "--batch-size", "8", "--seed", "0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert "skipped" in proc.stdout
        assert not (out / "f1_s25_raes.csv").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--epochs", "0"), ("--sigma", "-1"), ("--pool-stride", "0"), ("--n-sequences", "1"), ("--model", "vae"),
            ("--lr", "-1"), ("--lr", "0"), ("--lr", "nan"), ("--time-budget-s", "-5"), ("--model", "rae,rae"),
            ("--sigma", "inf"), ("--sigma", "nan"), ("--epochs", "2.5"), ("--features", "abc"),
        ],
    )
    def test_bad_value_is_one_line_error(self, tmp_path, flag, value):
        proc = raes_lab("run", *BASE_RUN, flag, value, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("raes-lab: error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    # a message names the flag's field (the flag with "-" read as "_"), except --features: n_features
    @pytest.mark.parametrize(
        "flag,field",
        [
            ("--kernel-size", "kernel_size"), ("--pool-stride", "pool_stride"), ("--seq-len", "seq_len"),
            ("--features", "n_features"), ("--n-sequences", "n_sequences"), ("--batch-size", "batch_size"),
        ],
    )
    def test_range_error_names_one_field_and_its_value(self, tmp_path, flag, field):
        out = tmp_path / "x"
        proc = raes_lab("run", *BASE_RUN, flag, "0", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr == f"raes-lab: error: {field} must be >= 1, got 0\n"
        assert not out.exists()

    def test_empty_variant_list_is_named(self, tmp_path):
        proc = raes_lab("run", *BASE_RUN, "--model", ",", "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert proc.stderr == "raes-lab: error: the variant list is empty; name at least one variant to train\n"
        assert not (tmp_path / "x").exists()

    def test_divergence_is_one_line_error(self, tmp_path):
        proc = raes_lab(
            "run", "--model", "rae", "--lr", "1e300", "--epochs", "3", "--seq-len", "8",
            "--n-sequences", "20", "--features", "1", "--out", str(tmp_path / "x"),
        )
        assert proc.returncode == 1
        assert proc.stderr == "raes-lab: error: non-finite training loss at epoch 1, batch 0\n"

    def test_determinism_excluding_timing_columns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            proc = raes_lab("run", "--model", "all", *BASE_RUN, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
        for name in ("f1_s100_rae.csv", "f1_s100_raes.csv", "f1_s100_raesc.csv", "summary.csv"):
            assert non_timing_content(out_a / name) == non_timing_content(out_b / name), name


class TestGrid:
    def test_reduced_grid_summary(self, tmp_path):
        out = tmp_path / "grid"
        proc = raes_lab(
            "grid", "--features", "1,2", "--sigmas", "0.25,1.0",
            "--seq-len", "12", "--epochs", "1", "--n-sequences", "20",
            "--batch-size", "10", "--seed", "0", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        table = (out / "summary.txt").read_text()
        rows = [ln.split() for ln in table.splitlines() if ln.strip() and ln.split()[0].isdigit()]
        assert len(rows) == 4
        # seq_len 12: context sizes 3, 12, 6, 24 -> raes infeasible at sigma 25%
        raes_cells = {(r[0], r[1]): r[3] for r in rows}
        assert raes_cells[("1", "25%")] == "-"
        assert raes_cells[("2", "25%")] == "-"
        assert raes_cells[("1", "100%")] != "-"
        assert raes_cells[("2", "100%")] != "-"


    def test_bad_later_cell_fails_before_any_training(self, tmp_path):
        out = tmp_path / "grid"
        proc = raes_lab(
            "grid", "--features", "1", "--sigmas", "1.0,-1", "--models", "rae",
            "--seq-len", "8", "--epochs", "1", "--n-sequences", "10", "--out", str(out),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("raes-lab: error: ")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "features=" not in proc.stdout
        assert not out.exists()

    def test_bad_decoder_hidden_fails_before_any_training(self, tmp_path):
        out = tmp_path / "grid"
        proc = raes_lab(
            "grid", "--features", "1,4", "--sigmas", "0.25", "--models", "raes", "--decoder-hidden", "0",
            "--seq-len", "200", "--epochs", "1", "--n-sequences", "10", "--out", str(out),
        )
        assert proc.returncode == 2
        assert proc.stderr == "raes-lab: error: decoder_hidden must be >= 1, got 0\n"
        assert proc.stdout == ""
        assert not out.exists()

    def test_unknown_flag_is_one_line_error(self, tmp_path):
        proc = raes_lab("grid", "--bogus", "--out", str(tmp_path / "grid"))
        assert proc.returncode == 2
        assert proc.stderr == "raes-lab: error: unrecognized arguments: --bogus\n"
        assert proc.stdout == ""
        assert not (tmp_path / "grid").exists()

    @pytest.mark.parametrize(
        "features,sigmas,models",
        [
            ("1", "1.0,1.0", "rae"),
            ("1,1", "1.0", "rae"),
            ("1", "0.1234567,0.1234568", "rae"),  # both tag as s12.3457
            ("1", "1.0", "rae,rae"),
        ],
    )
    def test_duplicate_cell_fails_before_any_training(self, tmp_path, features, sigmas, models):
        out = tmp_path / "grid"
        proc = raes_lab(
            "grid", "--features", features, "--sigmas", sigmas, "--models", models,
            "--seq-len", "8", "--epochs", "1", "--n-sequences", "20", "--out", str(out),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("raes-lab: error: ")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "features=" not in proc.stdout
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--features", ","), ("--features", ""), ("--sigmas", ","), ("--sigmas", ""),
            ("--features", "1,abc"), ("--sigmas", "1.0,half"),
        ],
    )
    def test_empty_axis_is_named(self, tmp_path, flag, value):
        out = tmp_path / "grid"
        proc = raes_lab(
            "grid", "--features", "1", "--sigmas", "1.0", flag, value, "--models", "rae",
            "--seq-len", "8", "--epochs", "1", "--n-sequences", "20", "--out", str(out),
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("raes-lab: error: ")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert flag in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


@pytest.mark.parametrize("under", ["", "sub"])
@pytest.mark.parametrize(
    "command",
    [
        ["run", "--model", "rae", *BASE_RUN],
        ["grid", "--features", "1", "--sigmas", "1.0", "--models", "rae", "--seq-len", "8", "--n-sequences", "20"],
    ],
    ids=["run", "grid"],
)
@pytest.mark.parametrize("dangling", [False, True], ids=["file", "dangling-link"])
def test_out_under_a_file_fails_before_any_training(tmp_path, command, under, dangling):
    blocker = tmp_path / "taken"
    if dangling:
        blocker.symlink_to(tmp_path / "gone")
    else:
        blocker.write_text("keep\n")
    proc = raes_lab(*command, "--out", str(blocker / under))
    assert proc.returncode == 2
    assert proc.stderr == f"raes-lab: error: --out {blocker / under}: {blocker} is not a directory\n"
    assert proc.stdout == ""
    assert not (tmp_path / "gone").exists()
    assert dangling or blocker.read_text() == "keep\n"


ONE_EPOCH_CELL = ["run", "--model", "rae", "--seq-len", "8", "--n-sequences", "20", "--batch-size", "8", "--epochs", "1"]


def assert_one_error_line(proc, code):
    assert proc.returncode == code
    assert proc.stderr.startswith("raes-lab: error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr + proc.stdout


def test_out_name_too_long_fails_before_any_training(tmp_path):
    out = tmp_path / ("a" * 300) / "x"
    proc = raes_lab(*ONE_EPOCH_CELL, "--out", str(out))
    assert_one_error_line(proc, 2)
    assert proc.stderr == f"raes-lab: error: --out {out}: File name too long\n"
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_unwritable_report_is_one_line_error(tmp_path):
    (tmp_path / "summary.csv").mkdir()
    proc = raes_lab(*ONE_EPOCH_CELL, "--out", str(tmp_path))
    assert_one_error_line(proc, 1)
    assert "summary.csv" in proc.stderr
    assert "rae: 1 epochs" in proc.stdout


def test_run_is_a_one_cell_grid(tmp_path):
    # kernel 13 over a 12-entry context leaves raesc infeasible
    flags = [
        "--seq-len", "12", "--epochs", "2", "--n-sequences", "40", "--batch-size", "8", "--seed", "3",
        "--kernel-size", "13",
    ]
    run_out, grid_out = tmp_path / "run", tmp_path / "grid"
    run = raes_lab("run", "--model", "all", "--features", "1", "--sigma", "1.0", *flags, "--out", str(run_out))
    grid = raes_lab("grid", "--models", "all", "--features", "1", "--sigmas", "1.0", *flags, "--out", str(grid_out))
    for proc in (run, grid):
        assert proc.returncode == 0, proc.stderr
        assert "raesc: skipped (" in proc.stdout
    names = sorted(p.name for p in run_out.iterdir())
    assert names == sorted(p.name for p in grid_out.iterdir())
    assert "f1_s100_raesc.csv" not in names
    for name in names:
        if name.endswith(".csv"):
            assert non_timing_content(run_out / name) == non_timing_content(grid_out / name), name


def captured_configs(monkeypatch, tmp_path, *argv) -> list[ExperimentConfig]:
    """The configs `main` hands to run_experiment, which trains nothing here."""
    configs = []

    def fake_run(cfg):
        configs.append(cfg)
        context = ContextSpec.autoencoding(cfg.seq_len, cfg.n_features, cfg.sigma)
        return [VariantResult(v, context, [], "not trained") for v in cfg.variants]

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    return configs


# flag, value, the ExperimentConfig or ModelVariant field it sets, that field's value
TRAINING_FLAGS = [
    ("--seq-len", "40", "seq_len", 40),
    ("--epochs", "3", "epochs", 3),
    ("--time-budget-s", "2.5", "time_budget_s", 2.5),
    ("--n-sequences", "30", "n_sequences", 30),
    ("--batch-size", "7", "batch_size", 7),
    ("--seed", "5", "seed", 5),
    ("--decoder-hidden", "9", "decoder_hidden", 9),
    ("--lr", "0.02", "lr", 0.02),
    ("--components-per-feature", "2", "components_per_feature", 2),
    ("--kernel-size", "4", "kernel_size", 4),
    ("--pool-size", "3", "pool_size", 3),
    ("--pool-stride", "1", "pool_stride", 1),
]
RUN_AXES = [("--features", "2", "n_features", 2), ("--sigma", "0.5", "sigma", 0.5)]
VARIANT_FIELDS = {f.name for f in fields(ModelVariant)}


class TestLibraryDefaults:
    def test_no_flag_gives_the_library_defaults(self, monkeypatch, tmp_path):
        grid_variants = [ModelVariant(kind) for kind in ("rae", "raes", "raesc")]
        assert captured_configs(monkeypatch, tmp_path, "grid") == [
            ExperimentConfig(grid_variants, n_features=nf, sigma=sigma)
            for nf in (1, 2, 4, 8)
            for sigma in (0.25, 0.5, 1.0)
        ]
        run_variants = [ModelVariant(kind) for kind in VARIANT_KINDS]
        assert captured_configs(monkeypatch, tmp_path, "run") == [ExperimentConfig(run_variants)]

    def test_every_library_field_has_a_flag(self):
        routed = {field for _, _, field, _ in TRAINING_FLAGS + RUN_AXES}
        assert routed == ({f.name for f in fields(ExperimentConfig)} - {"variants"}) | (VARIANT_FIELDS - {"kind"})

    @pytest.mark.parametrize(
        "command,flag,value,field,parsed",
        [(command, *case) for command in ("run", "grid") for case in TRAINING_FLAGS]
        + [("run", *case) for case in RUN_AXES],
    )
    def test_flag_reaches_the_library(self, monkeypatch, tmp_path, command, flag, value, field, parsed):
        on_variant = field in VARIANT_FIELDS
        default = ModelVariant("raesc") if on_variant else ExperimentConfig([ModelVariant("raesc")])
        assert getattr(default, field) != parsed
        if command == "run":
            argv, cell = ["run", "--model", "raesc"], {}
        else:
            argv = ["grid", "--models", "raesc", "--features", "2", "--sigmas", "0.5"]
            cell = {"n_features": 2, "sigma": 0.5}
        variant = ModelVariant("raesc", **({field: parsed} if on_variant else {}))
        config_kw = cell if on_variant else {**cell, field: parsed}
        assert captured_configs(monkeypatch, tmp_path, *argv, flag, value) == [ExperimentConfig([variant], **config_kw)]


class TestGradcheckCommand:
    def test_passes_with_exit_zero(self):
        proc = raes_lab("gradcheck", "--instances", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "PASS" in proc.stdout
        assert "FAIL" not in proc.stdout

    def test_zero_instances_rejected(self):
        proc = raes_lab("gradcheck", "--instances", "0")
        assert proc.returncode == 2
        assert "PASS" not in proc.stdout
        assert proc.stderr.startswith("raes-lab: error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_negative_seed_is_named(self):
        proc = raes_lab("gradcheck", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "raes-lab: error: --seed must be a non-negative integer, got -1\n"


TRAINING_FLAG_NAMES = [
    "--seq-len", "--epochs", "--time-budget-s", "--n-sequences", "--batch-size", "--seed", "--kernel-size",
    "--pool-size", "--pool-stride", "--decoder-hidden", "--lr", "--components-per-feature", "--out",
]


@pytest.mark.parametrize(
    "command,flags",
    [
        ([], []),
        (["run"], ["--model", "--features", "--sigma", *TRAINING_FLAG_NAMES]),
        (["grid"], ["--features", "--sigmas", "--models", *TRAINING_FLAG_NAMES]),
        (["gradcheck"], ["--instances", "--seed"]),
    ],
    ids=["raes-lab", "run", "grid", "gradcheck"],
)
def test_help_names_every_flag(command, flags):
    proc = raes_lab(*command, "--help")
    assert proc.returncode == 0, proc.stderr
    assert set(re.findall(r"--[a-z][a-z-]*", proc.stdout)) == {"--help", *flags}
    if not command:
        assert all(name in proc.stdout for name in ("run", "grid", "gradcheck"))
