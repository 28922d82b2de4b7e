"""Fold paired benchmark results of two checkouts into one BENCH_*.json file.

Run `triagebench/run.py` in a parent checkout and in a change checkout on the
same seeds, alternating which side goes first, for example:

    for seed in 41 42 43; do
      for side in parent change; do  # swap the order on every other seed
        (cd $side && python3 triagebench/run.py --workload long_raw \\
             --seed $seed --seconds 35 --trace 0)
      done
    done
    python3 tools/bench_record.py --parent parent --change change \\
        --seconds 35 --out BENCH_example.json

Each run leaves `.triagebench/result-<workload>-seed<seed>-trace0.json` in
its checkout. A pair is one workload and seed with a result on both sides.
For each workload and end-to-end metric the file holds, per side, the median
and quartiles (`statistics.quantiles(n=4)`) and the per-pair values in seed
order, plus the number of pairs in which the change is better, the metric's
`bound` from `BENCHMARK.json` and a `verdict`:

- `worse`: the change's median is worse than the parent's by more than the
  bound, taken relative to the parent's median;
- `unresolved`: otherwise, when the parent's quartile spread exceeds the bound
  relative to its median, unless every change run beats every parent run;
- `within_bound`: in every other case.

It also holds the seeds, the run seconds, the commit of each checkout, the
git tree id of its `src/` and whether its tracked files had uncommitted
changes, `os.cpu_count()`, and the Python and numpy versions of the
interpreter that runs this script, which should be the one that ran the
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def results(checkout: Path) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> the end-to-end result of one untraced run."""
    out = {}
    for path in sorted((checkout / ".triagebench").glob("result-*-trace0.json")):
        match = RESULT.fullmatch(path.name)
        if match:
            out[(match["workload"], int(match["seed"]))] = json.loads(path.read_text())
    return out


def commit(checkout: Path) -> dict:
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    # the tree id of src/ names the measured program even after the commit
    # that holds it is amended with the results
    return {"commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src"),
            "uncommitted_changes": bool(git("status", "--porcelain", "--untracked-files=no"))}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """worse, unresolved or within_bound; see the module docstring."""
    p, c = summary(parent), summary(change)
    sign = 1 if better == "higher" else -1
    scale = bound * abs(p["median"])
    if sign * (p["median"] - c["median"]) > scale:
        return "worse"
    all_beat = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if p["q3"] - p["q1"] > scale and not all_beat:
        return "unresolved"
    return "within_bound"


def fold(parent: dict, change: dict, specs: dict[str, dict]) -> dict:
    workloads = {}
    for workload in sorted({w for w, _ in parent.keys() & change.keys()}):
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == workload)
        pairs = [(parent[(workload, s)], change[(workload, s)]) for s in seeds]
        metrics = {}
        for name, spec in pairs[0][0]["metrics"].items():
            p = [a["metrics"][name]["value"] for a, _ in pairs]
            c = [b["metrics"][name]["value"] for _, b in pairs]
            better, bound = specs[name]["better"], specs[name]["bound"]
            sign = 1 if better == "higher" else -1
            metrics[name] = {
                "unit": spec["unit"], "better": better, "bound": bound,
                "parent": summary(p), "change": summary(c),
                "change_better_pairs": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
                "verdict": verdict(p, c, better, bound),
            }
        workloads[workload] = {
            "seeds": seeds,
            "correct": all(a["correct"] and b["correct"] for a, b in pairs),
            "failed": sum(a["failed"] + b["failed"] for a, b in pairs),
            "metrics": metrics,
        }
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--seconds", type=float, required=True,
                        help="the --seconds every run was given")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import numpy

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    workloads = fold(results(args.parent), results(args.change), specs)
    if not workloads:
        print("error: no workload and seed has a result in both checkouts", file=sys.stderr)
        return 1
    doc = {
        "run_seconds": args.seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "parent": commit(args.parent),
        "change": commit(args.change),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
