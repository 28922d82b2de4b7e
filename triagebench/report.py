"""Print the self-time table of a trace file written by a traced run.

Usage: python3 triagebench/report.py .triagebench/trace-<workload>-seed<n>-trace1.json

One row per span name: calls per round, total and self seconds per round
(medians over the run's rounds), and the self time's share of the round's
command time. Rows are sorted by self time.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def self_time_rows(doc: dict) -> list[tuple[str, float, float, float]]:
    per_name: dict[str, dict[int, list]] = defaultdict(dict)
    for agg in doc["aggregates"]:
        per_name[agg["name"]][agg["round"]] = (agg["calls"], agg["total_s"], agg["self_s"])
    rounds = range(1, doc["rounds"] + 1)
    rows = []
    for name, by_round in per_name.items():
        vals = [by_round.get(r, (0, 0.0, 0.0)) for r in rounds]
        rows.append((name, statistics.median(v[0] for v in vals),
                     statistics.median(v[1] for v in vals),
                     statistics.median(v[2] for v in vals)))
    return sorted(rows, key=lambda row: -row[3])


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = self_time_rows(doc)
    root_total = sum(total for name, _, total, _ in rows if name.startswith("cli."))
    print(f"{doc['workload']} seed {doc['seed']}: {doc['rounds']} rounds, "
          f"{root_total:.3f} s of commands per round\n")
    print("| span | calls/round | total s/round | self s/round | self share |")
    print("|---|---:|---:|---:|---:|")
    for name, calls, total, self_s in rows:
        print(f"| {name} | {calls:.0f} | {total:.3f} | {self_s:.3f} | "
              f"{100 * self_s / root_total:.1f}% |")


if __name__ == "__main__":
    main(sys.argv[1])
