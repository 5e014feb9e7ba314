"""Command line surface: flags, outputs, determinism, exit codes."""

import subprocess
import sys
from pathlib import Path

import pytest

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
            ("--sigma", "inf"), ("--sigma", "nan"),
        ],
    )
    def test_bad_value_is_one_line_error(self, tmp_path, flag, value):
        proc = raes_lab("run", *BASE_RUN, flag, value, "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("raes-lab: error: ")
        assert len(proc.stderr.strip().splitlines()) == 1

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
        [("--features", ","), ("--features", ""), ("--sigmas", ","), ("--sigmas", "")],
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
