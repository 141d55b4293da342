"""Committed ``BENCH_*.json`` files: one format for every bench record.

Each file holds the env stamp that ``perfbench/run.py`` prints and, per
workload, the parent and change runs of each end-to-end metric named in
``BENCHMARK.json``: the per-run values, their median and quartiles.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
ENV_FIELDS = ("nproc", "numpy", "blas", "blas_threads")
MIN_REPS = 3


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_format(path):
    bench = json.loads(path.read_text())
    for key in ENV_FIELDS:
        assert bench["env"][key] is not None, key
    assert bench["workloads"]
    for name, row in bench["workloads"].items():
        assert row["pairs"] >= MIN_REPS, name
        assert len(row["seeds"]) == row["pairs"], name
        for side in ("parent", "change"):
            metrics = row[side]
            assert sorted(metrics) == sorted(END_TO_END), (name, side)
            for metric, stats in metrics.items():
                values = stats["values"]
                assert len(values) >= MIN_REPS, (name, side, metric)
                # Statistics are stored rounded to 6 decimals.
                median = pytest.approx(statistics.median(values), abs=1e-6)
                assert stats["median"] == median, (name, side, metric)
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side, metric)
