"""tools/bench_record.py pairs results by workload and seed and summarizes each side."""

import importlib.util
import json
import subprocess

import pytest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def checkout(path, triage_by_seed):
    subprocess.run(["git", "init", "-q", str(path)], check=True)
    (path / "src").mkdir()
    (path / "src" / "program.py").write_text("")
    subprocess.run(["git", "-C", str(path), "add", "src"], check=True)
    subprocess.run(["git", "-C", str(path), "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-q", "-m", "c"], check=True)
    (path / ".triagebench").mkdir()
    for seed, (triage, rss) in triage_by_seed.items():
        result = {"correct": True, "attempted": 9, "failed": 0, "metrics": {
            "triage_reports_per_s": {"value": triage, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"}}}
        (path / ".triagebench" / f"result-long_raw-seed{seed}-trace0.json").write_text(
            json.dumps(result))
    # a traced run and another workload's unpaired run are left out
    (path / ".triagebench" / "result-long_raw-seed1-trace1.json").write_text("{}")


def test_record_folds_pairs(tmp_path):
    checkout(tmp_path / "p", {1: (100.0, 80.0), 2: (110.0, 80.0), 3: (90.0, 81.0)})
    checkout(tmp_path / "c", {1: (150.0, 82.0), 2: (105.0, 79.0), 3: (140.0, 82.0),
                              4: (999.0, 1.0)})
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", str(tmp_path / "p"), "--change", str(tmp_path / "c"),
                              "--seconds", "35", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["run_seconds"] == 35 and doc["cpu_count"] >= 1
    assert not doc["parent"]["uncommitted_changes"] and len(doc["change"]["commit"]) == 40
    assert doc["parent"]["src_tree"] == doc["change"]["src_tree"]
    w = doc["workloads"]["long_raw"]
    assert w["seeds"] == [1, 2, 3] and w["correct"] and w["failed"] == 0
    triage = w["metrics"]["triage_reports_per_s"]
    assert triage["parent"]["values"] == [100.0, 110.0, 90.0]
    assert triage["change"]["median"] == 140.0
    assert triage["change_better_pairs"] == 2
    assert triage["bound"] == 0.25 and triage["verdict"] == "within_bound"
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["change_better_pairs"] == 1
    assert rss["bound"] == 0.1 and rss["verdict"] == "within_bound"


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # median 65 against 100: 35% worse, past a 25% bound
    ([100.0, 110.0, 90.0], [60.0, 70.0, 65.0], "higher", 0.25, "worse"),
    # lower is better: median 90 against 80 is 12.5% worse, past a 10% bound
    ([80.0, 80.0, 81.0], [90.0, 89.0, 91.0], "lower", 0.1, "worse"),
    # not worse, but the parent's quartiles (50, 150) spread 100% of its median
    ([50.0, 100.0, 150.0], [95.0, 100.0, 105.0], "higher", 0.25, "unresolved"),
    # as wide a parent, but every change run beats every parent run
    ([50.0, 100.0, 150.0], [160.0, 170.0, 180.0], "higher", 0.25, "within_bound"),
    # median 82 against 80 is 2.5% worse, and the parent spreads 1.25%
    ([80.0, 80.0, 81.0], [82.0, 79.0, 82.0], "lower", 0.1, "within_bound"),
], ids=["worse", "worse when lower is better", "unresolved", "every run beats a wide parent",
        "within_bound"])
def test_verdict(parent, change, better, bound, expected):
    assert bench_record.verdict(parent, change, better, bound) == expected
