"""Smoke test of the benchmark at tiny sizes, so it cannot rot.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402

TINY = {
    "tag": {"train_sentences": 6, "train_length": [4, 6], "epochs": 1, "sentences": 3,
            "length": [12, 14]},
    "retrain": {"train_sentences": 6, "epochs": 1, "identical_pairs": 3, "edited_pairs": 3,
                "eval_sentences": 2},
    "analyze": {"identical_pairs": 5, "edited_pairs": 10},
}


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_workload_runs_and_checks_its_outputs(name, trace):
    params = {**run.load_json("workloads.json")[name], **TINY[name]}
    result, lines = run.measure(name, params, seed=3, seconds=0, trace=trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = metric_names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_recorded_digests_reproduce_at_the_default_seed():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "retrain",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tag", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
