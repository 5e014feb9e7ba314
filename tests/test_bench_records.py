"""Every committed ``BENCH_*.json`` parses and carries what its claim is judged by."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
CLAIM_FIELDS = ("metric", "workload", "pairs", "wins", "parent_median", "change_median", "parent_iqr", "met")


def test_the_repo_commits_bench_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_its_run_and_states_its_claim(path):
    record = json.loads(path.read_text())
    assert record["label"] == path.stem.removeprefix("BENCH_")
    for key in ("parent_commit", "command", "method"):
        assert isinstance(record[key], str) and record[key], key
    assert isinstance(record["environment"]["blas_threads"], int)
    claim = record["claim"]
    assert [f for f in CLAIM_FIELDS if f not in claim] == []
    workloads = record["workloads"]
    assert workloads
    for name, workload in workloads.items():
        assert workload["metrics"], name
        for metric, sides in workload["metrics"].items():
            for side in ("parent", "change"):
                assert isinstance(sides[side]["median"], (int, float)), (name, metric, side)
    claimed = workloads[claim["workload"]]["metrics"][claim["metric"]]
    assert claim["parent_median"] == claimed["parent"]["median"]
    assert claim["change_median"] == claimed["change"]["median"]
    # the rule a claimed gain is judged by: 9 of 10 pairs won and a median
    # gap wider than the parent's interquartile range
    if claim["met"]:
        assert claim["wins"] >= 0.9 * claim["pairs"]
        assert abs(claim["change_median"] - claim["parent_median"]) > claim["parent_iqr"]
