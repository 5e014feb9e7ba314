"""Smoke test of the benchmark on shrunken copies of its workloads.

    python -m pytest bench/test_bench.py -q
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

# Same feature counts, sigmas and learning rates, so the same variants are
# feasible; ten steps and a few small batches make a run take seconds.
SHRUNK = {
    name: replace(wl, seq_len=10, n_sequences=40, batch_size=8, epochs=3)
    for name, wl in bench.WORKLOADS.items()
}


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def test_benchmark_json_matches_the_code():
    end_to_end, per_layer, workloads = declared()
    assert workloads == list(bench.WORKLOADS)
    assert end_to_end == {n: bench.unit(n) for n in bench.metric_names(trace=False)}
    assert per_layer == {n: bench.unit(n) for n in bench.metric_names(trace=True)}


@pytest.mark.parametrize("name", list(SHRUNK))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(name, trace):
    end_to_end, per_layer, _ = declared()
    result, lines = bench.run(SHRUNK[name], seed=3, seconds=0.5, trace=trace)
    expected = per_layer if trace else end_to_end
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * SHRUNK[name].epochs * (2 if trace else 1)
    assert any(line.startswith("environment ") for line in lines)
    if name == "desk-f4-T50":
        assert any(line.startswith("skipped raes-stretch:") for line in lines)


def test_missing_span_target_reads_as_absent():
    bench.import_raeslab()
    spans = bench.Spans()
    spans.install([("models.gone", "raeslab.models", "no_such_function")])
    spans.uninstall()
    assert spans.absent == ["raeslab.models.no_such_function"]


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tiny-f4-T50", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
