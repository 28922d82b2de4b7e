"""Triage benchmark: the registry workflow end to end through the CLI.

Usage, from the root of a source checkout:

    python3 triagebench/run.py --workload sectioned_batch --seed 1 --seconds 30 --trace 0

Each round runs the commands a user types, through `cli.main`:
build-dataset t1/t2, train-baseline for the four members, triage on a
held-out corpus, evaluate t1/t2. Rounds repeat until --seconds is spent
(at least three). The first round's outputs pass every correctness check;
later rounds must reproduce them byte for byte. The last line of standard
output is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from spans and counters with --trace 1 (the trace file is written to
.triagebench/ at the end of the run).

The process runs with one OpenBLAS thread: see README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 3      # set-up repetitions; setup_s is their median
MIN_ROUNDS = 3
HOSTED_VARIANT = "a"  # the member model the service hosts for each tier

END_TO_END = (
    ("setup_s", "s"), ("build_dataset_records_per_s", "1/s"),
    ("train_examples_per_s", "1/s"), ("triage_reports_per_s", "1/s"),
    ("evaluate_reports_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("t1_recall", "ratio"), ("t2_recall", "ratio"), ("t2_precision", "ratio"),
)


class OperationFailed(Exception):
    pass


def import_program(root: Path):
    """Import the program from the checkout's src/, with one BLAS thread."""
    src = root / "src"
    if not (src / "reportable_triage" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {src}/reportable_triage")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS
    for var in ("TRIAGE_REMOTE_ENDPOINT_T1", "TRIAGE_REMOTE_ENDPOINT_T2"):
        os.environ.pop(var, None)  # the configs name the endpoints
    sys.path.insert(0, str(src))
    import reportable_triage
    from reportable_triage import cli

    if Path(reportable_triage.__file__).resolve().parent != (src / "reportable_triage").resolve():
        sys.exit(f"error: imported {reportable_triage.__file__}, not the checkout's copy")
    return cli


def digest_tree(path: Path) -> dict[str, str]:
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file()}


class Bench:
    def __init__(self, args, cli, work: Path):
        import checks
        import workloads

        self.args, self.cli, self.work = args, cli, work
        self.checks, self.wl = checks, workloads
        self.w = workloads.WORKLOADS[args.workload]
        self.setup = None
        self.tracer = None
        self.attempted = 0
        self.reference_digests: dict[str, str] | None = None
        self.quality: dict[str, float] = {}
        self.work_counts: dict[str, float] = {}

    # --- set-up --------------------------------------------------------

    def set_up(self) -> list[float]:
        times = []
        for i in range(SETUPS):
            if self.setup is not None and self.setup.service is not None:
                self.setup.service.stop()
            gc.collect()
            t0 = time.perf_counter()
            self.setup = self.wl.set_up(self.w, self.args.seed, self.work,
                                        BENCH_DIR / "service.py")
            times.append(time.perf_counter() - t0)
        return times

    def operations(self) -> list[tuple[str, list[str]]]:
        s, wl = self.setup, self.wl
        cfg = ["--config", str(s.config)]
        outcomes = str(s.run_dir / "outcomes.jsonl")
        ops = [("build_dataset", cfg + ["build-dataset", "--tier", t]) for t in wl.TIERS]
        ops += [("train_baseline", cfg + ["train-baseline", "--tier", t, "--variant", v])
                for t in wl.TIERS for v in wl.VARIANTS]
        ops += [("triage", ["--config", str(s.triage_config), "triage",
                            "--corpus", str(s.held_corpus), "--out", outcomes])]
        ops += [("evaluate", cfg + ["evaluate", "--outcomes", outcomes, "--gold",
                                    str(s.held_corpus), "--tier", t, "--out", str(s.run_dir)])
                for t in wl.TIERS]
        return ops

    # --- rounds --------------------------------------------------------

    def run_round(self, rnd: int) -> dict:
        durations: dict[str, float] = defaultdict(float)
        tracer, service = self.tracer, self.setup.service
        for kind, argv in self.operations():
            if kind == "triage" and service is not None:
                service.load({t: self.setup.model_path(t, HOSTED_VARIANT)
                              for t in self.wl.TIERS})
                service.drain()
            gc.collect()
            out = io.StringIO()
            if tracer is not None:
                tracer.round = rnd
            span = tracer.span(f"cli.{kind}") if tracer is not None else nullcontext()
            self.attempted += 1
            t0 = time.perf_counter()
            with redirect_stdout(out), span:
                rc = self.cli.main(argv)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.round = None
            if rc != 0:
                raise OperationFailed(f"{' '.join(argv)} exited {rc}")
            durations[kind] += elapsed
        drained = service.drain() if service is not None else None
        if tracer is not None and drained is not None:
            tracer.round = rnd
            c = drained["counters"]
            tracer.count("remote.service_s", c["service_s"])
            tracer.count("remote.connections", c["connections"])
            tracer.count("remote.bytes_received_by_service", c["bytes_received"])
            tracer.count("remote.bytes_sent_by_service", c["bytes_sent"])
            tracer.round = None
        self.verify(rnd, drained)
        return durations

    # --- correctness ---------------------------------------------------

    def verify(self, rnd: int, drained) -> None:
        ck, s = self.checks, self.setup
        outcomes = None
        if drained is not None:
            outcomes = ck.read_jsonl(s.run_dir / "outcomes.jsonl")
            ck.check_remote(outcomes, drained["log"], self.wl.TOKEN_BUDGET)
        digests = digest_tree(s.run_dir)
        if self.reference_digests is not None:
            changed = sorted(k for k in digests.keys() | self.reference_digests.keys()
                             if digests.get(k) != self.reference_digests.get(k))
            ck.require(not changed, f"round {rnd} rerun differs in {changed}")
            return
        self.reference_digests = digests
        if outcomes is None:
            outcomes = ck.read_jsonl(s.run_dir / "outcomes.jsonl")
        held = ck.read_jsonl(s.held_corpus)
        train_corpus = ck.read_jsonl(s.train_corpus)

        ck.check_outcomes(outcomes)
        ck.negative_controls(outcomes)
        for tier in self.wl.TIERS:
            gold = ck.gold_labels(held, tier)
            ck.check_fn_intersection(outcomes, gold, tier)
            doc = json.loads((s.run_dir / f"eval_{tier}.json").read_text(encoding="utf-8"))
            recount = ck.check_eval(doc, outcomes, gold, tier)["combined"]
            if tier == "t1":
                self.quality["t1_recall"] = recount["recall"]
            else:
                self.quality["t2_recall"] = recount["recall"]
                self.quality["t2_precision"] = recount["precision"]
            d = s.run_dir / tier
            train = ck.read_jsonl(d / "train.jsonl")
            ck.check_dataset(train_corpus, train, ck.read_jsonl(d / "test.jsonl"),
                             json.loads((d / "manifest.json").read_text(encoding="utf-8")),
                             tier, self.wl.UNDERSAMPLE[tier], self.wl.TRAIN_FRACTION)
            self.work_counts[f"train_examples_{tier}"] = len(train)
        if self.w.long_raw:
            self.verify_long_raw(held, train_corpus)

    def verify_long_raw(self, held: list[dict], train_corpus: list[dict]) -> None:
        from reportable_triage.corpus import load_corpus
        from reportable_triage.preprocess import PipelineVariant, assemble_input
        from reportable_triage.sectioner import ensure_sections, parse_sections, reassemble

        ck = self.checks
        ck.check_sectioning([r["raw_text"] for r in held + train_corpus],
                            parse_sections, reassemble)
        reports = [ensure_sections(r.report) for r in load_corpus(self.setup.held_corpus)]
        for v in self.wl.VARIANTS:
            variant = PipelineVariant.parse(v)
            ck.check_budgets((assemble_input(r, variant, self.wl.TOKEN_BUDGET)
                              for r in reports), self.wl.TOKEN_BUDGET)

    # --- metrics -------------------------------------------------------

    def throughputs(self) -> dict[str, tuple[str, float]]:
        """Throughput metric -> (command, work one round of that command does)."""
        w, wl = self.w, self.wl
        examples = sum(self.work_counts[f"train_examples_{t}"] for t in wl.TIERS)
        return {
            "build_dataset_records_per_s": ("build_dataset", len(wl.TIERS) * w.n_train),
            "train_examples_per_s": ("train_baseline",
                                     examples * len(wl.VARIANTS) * wl.EPOCHS),
            "triage_reports_per_s": ("triage", w.n_held),
            "evaluate_reports_per_s": ("evaluate", len(wl.TIERS) * w.n_held),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = import_program(root)
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    out_dir = root / ".triagebench"
    work = out_dir / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(args, cli, work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_times = bench.set_up()
        if args.trace:
            bench.tracer = tracing.Tracer()
            tracing.install(bench.tracer)
        per_round, round_wall = [], []
        start = time.perf_counter()
        rnd = 0
        while True:
            rnd += 1
            t0 = time.perf_counter()
            per_round.append(bench.run_round(rnd))
            round_wall.append(time.perf_counter() - t0)
            spent = time.perf_counter() - start
            if rnd >= MIN_ROUNDS and spent + statistics.median(round_wall) > args.seconds:
                break
    except (bench.checks.CheckFailed, OperationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        failed = int(isinstance(exc, OperationFailed))
        print(json.dumps({"correct": False, "attempted": max(bench.attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1
    finally:
        if bench.setup is not None and bench.setup.service is not None:
            bench.setup.service.stop()

    # throughput over the whole run: all rounds' work over all rounds' time
    e2e = {"setup_s": statistics.median(setup_times)}
    for name, (kind, work) in bench.throughputs().items():
        e2e[name] = rnd * work / sum(d[kind] for d in per_round)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e.update(bench.quality)
    detail = {"workload": args.workload, "seed": args.seed, "rounds": rnd,
              "setup_s_samples": setup_times, "per_round_command_s": per_round,
              "round_wall_s": round_wall, "end_to_end": e2e}
    if args.trace:
        per_layer = bench.tracer.per_layer(list(range(1, rnd + 1)))
        _, _, tail_pct = tracing.request_percentiles(bench.tracer.request_samples)
        detail.update(per_layer=per_layer, remote_request_tail_percentile=tail_pct)
        bench.tracer.write(str(out_dir / f"trace-{tag}.json"), detail)
        metrics = {n: {"value": per_layer[n], "unit": u} for n, u in tracing.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    result = {"correct": True, "attempted": bench.attempted, "failed": 0, "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(json.dumps({**result, "detail": detail},
                                                           indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
