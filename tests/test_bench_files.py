"""Every committed benchmark result (``BENCH_*.json``) agrees with the
benchmark's contract in ``BENCHMARK.json``, which this test only reads."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_results_follow_the_contract():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in contract["workloads"]}
    end_to_end = {m["name"]: m for m in contract["end_to_end"]}
    results = sorted(ROOT.glob("BENCH_*.json"))
    assert results
    for path in results:
        for key, entry in json.loads(path.read_text())["workloads"].items():
            assert entry["workload"] in workloads, (path.name, key)
            assert set(entry["metrics"]) == set(end_to_end), (path.name, key)
            for name, metric in entry["metrics"].items():
                where = (path.name, key, name)
                bound, better = end_to_end[name]["bound"], end_to_end[name]["better"]
                assert metric["bound"] == bound, where
                assert metric["better"] == better, where
                for side in ("parent", "change"):
                    q = metric[side]
                    assert q["q1"] <= q["median"] <= q["q3"], where
                parent, change = metric["parent"]["median"], metric["change"]["median"]
                worse = change - parent if better == "lower" else parent - change
                assert metric["within_bound"] == (worse <= bound * parent), where
