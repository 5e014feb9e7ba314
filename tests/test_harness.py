"""Training loop bookkeeping, experiment fairness, reports and CSV round-trips."""

import numpy as np
import pytest

from raeslab.data import Dataset
from raeslab.harness import (
    EpochRecord,
    ExperimentConfig,
    VariantResult,
    derive_seed,
    evaluate,
    format_summary_table,
    median_epoch_time,
    read_records_csv,
    records_csv_name,
    run_experiment,
    train_epoch,
    write_report,
)
from raeslab.models import AutoencoderModel, ContextSpec, ModelVariant
from raeslab.optim import AdamState, TrainingError, mse_loss
from raeslab.tensor import Tape, Tensor, active_tape, backward


def tiny_cfg(**kw):
    base = dict(
        variants=[ModelVariant("rae"), ModelVariant("raes"), ModelVariant("raesc")],
        n_features=1,
        seq_len=8,
        sigma=1.0,
        epochs=2,
        batch_size=16,
        seed=5,
        n_sequences=40,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def tiny_model(seed=0, seq_len=6, n_features=1, sigma=1.0):
    spec = ContextSpec.autoencoding(seq_len, n_features, sigma)
    rng = np.random.default_rng(seed)
    return AutoencoderModel.build(ModelVariant("raes"), spec, rng)


def flat_dataset(n, seq_len, n_features, seed=0):
    rng = np.random.default_rng(seed)
    seqs = rng.uniform(-1, 1, (n, seq_len, n_features))
    cut = n * 4 // 5
    return Dataset(seqs, np.arange(cut), np.arange(cut, n))


class TestDeriveSeed:
    def test_stable_and_label_sensitive(self):
        assert derive_seed(1, "data") == derive_seed(1, "data")
        assert derive_seed(1, "data") != derive_seed(1, "split")
        assert derive_seed(1, "data") != derive_seed(2, "data")


class TestTrainEpoch:
    def test_one_optimizer_step_per_batch(self):
        # 4000 train sequences at batch 100 must mean exactly 40 Adam steps
        model = tiny_model(seq_len=4)
        ds = flat_dataset(5000, 4, 1)
        adam = AdamState(model.parameters())
        rec = train_epoch(model, ds, adam, batch_size=100)
        assert adam.t == 40
        assert rec.epoch == 0
        assert rec.epoch_wall_time_s > 0.0

    def test_empty_train_split_rejected(self):
        # one sequence splits 0:1, which would average no batch losses into NaN
        model = tiny_model()
        adam = AdamState(model.parameters())
        with pytest.raises(ValueError, match="train split is empty"):
            train_epoch(model, flat_dataset(1, 6, 1), adam, batch_size=8)
        assert adam.t == 0

    def test_divergence_leaves_no_tape_open(self):
        # the non-finite loss raises inside train_epoch's `with Tape()`
        model = tiny_model()
        model.head.b.data[:] = np.inf
        ds = flat_dataset(30, 6, 1)
        adam = AdamState(model.parameters())
        with pytest.raises(TrainingError, match="non-finite training loss"):
            train_epoch(model, ds, adam, batch_size=8)
        assert active_tape() is None
        assert not model.forward(Tensor(ds.sequences[:2])).requires_grad

    def test_validation_mutates_nothing(self):
        model = tiny_model()
        ds = flat_dataset(30, 6, 1)
        before = [p.data.copy() for p in model.parameters()]
        evaluate(model, ds, "val", batch_size=8)
        for p, snap in zip(model.parameters(), before):
            assert np.array_equal(p.data, snap)

    def test_evaluate_is_unchanged_by_a_taped_forward_and_backward(self):
        # evaluate's forwards share one gate block per GRU call; a taped
        # forward keeps its own per step and the backward overwrites them
        model = tiny_model()
        ds = flat_dataset(30, 6, 1)
        before = evaluate(model, ds, "val", batch_size=8)
        xb = Tensor(ds.sequences[:8])
        with Tape() as tape:
            backward(tape, mse_loss(model.forward(xb), xb))
        assert evaluate(model, ds, "val", batch_size=8) == before

    def test_identical_seeds_identical_records(self):
        def run():
            model = tiny_model(seed=3)
            ds = flat_dataset(30, 6, 1, seed=4)
            adam = AdamState(model.parameters())
            recs = [
                train_epoch(model, ds, adam, batch_size=8, epoch=e)
                for e in range(3)
            ]
            return [(r.train_mse, r.val_mse) for r in recs]

        assert run() == run()

    def test_reconstruction_target_is_the_input(self):
        # with all-zero parameters the model outputs zeros, so the recorded
        # training MSE must equal the mean square of the input batches
        model = tiny_model(seq_len=4)
        for p in model.parameters():
            p.data[:] = 0.0
        ds = flat_dataset(10, 4, 1, seed=8)
        adam = AdamState(model.parameters())
        rec = train_epoch(model, ds, adam, batch_size=8)
        expected = float((ds.sequences[ds.train_indices] ** 2).mean())
        assert rec.train_mse == pytest.approx(expected, rel=1e-12)

    def test_cumulative_time_accumulates(self):
        model = tiny_model()
        ds = flat_dataset(30, 6, 1)
        adam = AdamState(model.parameters())
        r0 = train_epoch(model, ds, adam, batch_size=8, epoch=0, cumulative_start=0.0)
        r1 = train_epoch(model, ds, adam, batch_size=8, epoch=1, cumulative_start=r0.cumulative_time_s)
        assert r1.cumulative_time_s == pytest.approx(r0.epoch_wall_time_s + r1.epoch_wall_time_s, abs=1e-6)


class TestRunExperiment:
    def test_infeasible_raes_is_skipped_not_crashed(self):
        cfg = tiny_cfg(sigma=0.25, seq_len=8)  # context 2, not a multiple of 8
        results = run_experiment(cfg)
        by_kind = {r.variant.kind: r for r in results}
        assert by_kind["raes"].skipped
        assert "multiple" in by_kind["raes"].skipped_reason
        assert not by_kind["rae"].skipped

    def test_all_variants_trained_and_ordered(self):
        results = run_experiment(tiny_cfg())
        assert [r.variant.kind for r in results] == ["rae", "raes", "raesc"]
        assert all(len(r.records) == 2 for r in results)

    def test_time_budget_stops_early(self):
        cfg = tiny_cfg(epochs=50, time_budget_s=1e-6)
        results = run_experiment(cfg)
        for r in results:
            if not r.skipped:
                assert len(r.records) == 1  # stops right after the first epoch

    def test_epoch_count_bookkeeping(self):
        results = run_experiment(tiny_cfg(epochs=3))
        for r in results:
            if not r.skipped:
                assert len(r.records) <= 3
                assert [rec.epoch for rec in r.records] == list(range(len(r.records)))

    def test_identical_config_identical_losses(self):
        a = run_experiment(tiny_cfg())
        b = run_experiment(tiny_cfg())
        for ra, rb in zip(a, b):
            assert [(x.train_mse, x.val_mse) for x in ra.records] == [
                (x.train_mse, x.val_mse) for x in rb.records
            ]


class TestMedian:
    def records(self, times):
        return [EpochRecord(i, 0.0, 0.0, t, sum(times[: i + 1])) for i, t in enumerate(times)]

    def test_odd_count(self):
        assert median_epoch_time(self.records([1.0, 2.0, 9.0])) == 2.0

    def test_even_count_means_middle_two(self):
        assert median_epoch_time(self.records([1.0, 3.0])) == 2.0

    def test_singleton(self):
        assert median_epoch_time(self.records([5.0])) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_epoch_time([])


def fabricated_results(features=(1, 2, 4, 8), sigmas=(0.25, 0.5, 1.0), seq_len=200):
    """Synthetic per-cell results with real feasibility decisions, no training."""
    from raeslab.models import infeasibility_reason

    results = []
    for nf in features:
        for sigma in sigmas:
            spec = ContextSpec.autoencoding(seq_len, nf, sigma)
            for kind in ("rae", "raes", "raesc"):
                variant = ModelVariant(kind)
                reason = infeasibility_reason(variant, spec)
                if reason is not None:
                    results.append(VariantResult(variant, spec, [], reason))
                else:
                    recs = [
                        EpochRecord(e, 0.5 / (e + 1), 0.6 / (e + 1), 0.25 + 0.01 * e, (e + 1) * 0.25)
                        for e in range(4)
                    ]
                    results.append(VariantResult(variant, spec, recs, None))
    return results


class TestWriteReport:
    def test_table_one_layout_and_dash_pattern(self, tmp_path):
        results = fabricated_results()
        write_report(results, tmp_path)
        lines = (tmp_path / "summary.txt").read_text().splitlines()
        table = [ln.split() for ln in lines if ln.strip() and ln.split()[0].isdigit()]
        assert len(table) == 12  # (features, sigma) rows
        assert all(len(row) == 2 + 3 for row in table)  # three variant columns
        dashes = {
            (int(row[0]), row[1])
            for row in table
            if row[3] == "-"  # raes column
        }
        assert dashes == {(1, "25%"), (1, "50%"), (2, "25%")}
        rae_col = [row[2] for row in table]
        raesc_col = [row[4] for row in table]
        assert "-" not in rae_col and "-" not in raesc_col

    def test_per_variant_csv_row_count(self, tmp_path):
        results = fabricated_results(features=(1,), sigmas=(1.0,))
        write_report(results, tmp_path)
        for res in results:
            if res.skipped:
                continue
            lines = (tmp_path / records_csv_name(res)).read_text().splitlines()
            assert len(lines) == len(res.records) + 1

    def test_csv_roundtrip_nine_digits(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = []
        cum = 0.0
        for e in range(5):
            wall = float(rng.uniform(0.01, 2.0))
            cum += wall
            recs.append(EpochRecord(e, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)), wall, cum))
        spec = ContextSpec.autoencoding(8, 1, 1.0)
        res = VariantResult(ModelVariant("rae"), spec, recs, None)
        write_report([res], tmp_path)
        loaded = read_records_csv(tmp_path / records_csv_name(res))
        for a, b in zip(recs, loaded):
            assert a.epoch == b.epoch
            for field in ("train_mse", "val_mse", "epoch_wall_time_s", "cumulative_time_s"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-8)

    def test_summary_csv_schema(self, tmp_path):
        results = fabricated_results(features=(1,), sigmas=(0.25, 1.0))
        write_report(results, tmp_path)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[0] == "features,sigma,variant,median_epoch_time_s,final_val_mse,epochs_run,skipped_reason"
        assert len(lines) == 1 + len(results)
        skipped_rows = [ln for ln in lines[1:] if ln.split(",")[2] == "raes" and ln.split(",")[1] == "0.25"]
        assert len(skipped_rows) == 1
        assert skipped_rows[0].split(",")[5] == "0"

    def test_timing_semantics_documented_in_header(self, tmp_path):
        write_report(fabricated_results(features=(1,), sigmas=(1.0,)), tmp_path)
        head = (tmp_path / "summary.txt").read_text().splitlines()[:3]
        assert any("training pass only" in ln for ln in head)

    def test_every_line_ends_in_a_bare_newline(self, tmp_path):
        results = fabricated_results(features=(1,), sigmas=(0.25, 1.0))
        write_report(results, tmp_path)
        written = sorted(tmp_path.iterdir())
        assert {p.name for p in written} >= {"summary.csv", "summary.txt"}
        for path in written:
            data = path.read_bytes()
            assert b"\r" not in data, path.name
            assert data.endswith(b"\n"), path.name
        # the per-epoch CSVs keep their byte layout
        res = next(r for r in results if not r.skipped)
        expected = "epoch,epoch_wall_time_s,cumulative_time_s,train_mse,val_mse\n" + "".join(
            f"{r.epoch},{r.epoch_wall_time_s:.9g},{r.cumulative_time_s:.9g},{r.train_mse:.9g},{r.val_mse:.9g}\n"
            for r in res.records
        )
        assert (tmp_path / records_csv_name(res)).read_text() == expected

    def test_empty_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_report([], tmp_path)

    def test_read_rejects_a_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("epoch,train_mse\n0,0.5\n")
        with pytest.raises(ValueError, match=r"other\.csv: unexpected header \['epoch', 'train_mse'\]$"):
            read_records_csv(path)


class TestFairness:
    def test_variants_see_identical_data_and_split(self):
        # the dataset is derived from the config seed only, so two configs
        # with different variant lists must train on identical batches
        cfg_a = tiny_cfg(variants=[ModelVariant("rae")])
        cfg_b = tiny_cfg(variants=[ModelVariant("raes")])
        from raeslab.data import SignalConfig, generate_dataset, shuffle_split

        def dataset_of(cfg):
            data_cfg = SignalConfig(
                n_sequences=cfg.n_sequences,
                seq_len=cfg.seq_len,
                n_features=cfg.n_features,
                components_per_feature=cfg.components_per_feature,
                seed=derive_seed(cfg.seed, "data"),
            )
            return shuffle_split(generate_dataset(data_cfg), derive_seed(cfg.seed, "split"))

        da, db = dataset_of(cfg_a), dataset_of(cfg_b)
        assert np.array_equal(da.sequences, db.sequences)
        assert np.array_equal(da.train_indices, db.train_indices)

    def test_summary_table_formatting(self):
        results = fabricated_results(features=(1,), sigmas=(0.25,))
        text = format_summary_table(results)
        assert "features" in text and "rae" in text and "-" in text
