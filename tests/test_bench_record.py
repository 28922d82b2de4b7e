"""tools/bench_record.py pairs results by workload and seed and summarizes each side."""

import importlib.util
import json
import subprocess
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
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["change_better_pairs"] == 1
