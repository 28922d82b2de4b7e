"""Spans and counters for the traced run, recorded from the benchmark's side.

`install` replaces the public functions of each program module with timing
wrappers, in every program module that holds a reference to them, so a call
made through an imported name is traced the same as one made through its
module. The program's code is not changed.

Each traced call pushes a frame; on return its duration is added to its
parent's child time, so a span's self time is its duration minus the time
its child spans cover. Per-item calls (one per report, chunk or text) are
kept as per-round aggregates: calls, total and self seconds. Coarser calls
are also kept as whole spans (id, parent, root, name, start, end). Counters
are recorded by the same wrappers, where the work happens. Everything stays
in memory until `write` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

# Per-layer metrics, in the order they are reported, with their units.
PER_LAYER = (
    ("corpus.load_s", "s"), ("corpus.bytes_loaded", "B"), ("corpus.write_s", "s"),
    ("sectioner.parse_s", "s"), ("sectioner.reports_parsed", "count"),
    ("preprocess.assemble_s", "s"), ("preprocess.assemble_self_s", "s"),
    ("preprocess.assemble_calls", "count"), ("preprocess.assemble_distinct_ratio", "ratio"),
    ("preprocess.normalize_s", "s"), ("preprocess.normalize_chars", "count"),
    ("preprocess.kept_char_ratio", "ratio"), ("preprocess.truncated_inputs", "count"),
    ("baseline.hash_s", "s"), ("baseline.hash_calls", "count"),
    ("baseline.hash_distinct_ratio", "ratio"), ("baseline.features_hashed", "count"),
    ("baseline.score_s", "s"), ("baseline.score_self_s", "s"),
    ("baseline.train_s", "s"), ("baseline.train_self_s", "s"),
    ("baseline.sgd_updates", "count"), ("baseline.loss_eval_s", "s"),
    ("baseline.model_load_s", "s"), ("baseline.model_save_s", "s"),
    ("remote.requests", "count"), ("remote.request_s.p50", "s"),
    ("remote.request_s.tail", "s"), ("remote.wait_s", "s"), ("remote.service_s", "s"),
    ("remote.connections", "count"), ("remote.bytes_sent", "B"),
    ("remote.bytes_received", "B"),
    ("cascade.t1_s", "s"), ("cascade.t2_s", "s"), ("cascade.t2_reports", "count"),
    ("cascade.combine_s", "s"), ("cascade.serialize_s", "s"),
    ("cascade.outcome_bytes", "B"), ("cascade.read_outcomes_s", "s"),
    ("sampler.build_s", "s"), ("metrics.eval_s", "s"),
    ("util.write_s", "s"), ("util.bytes_written", "B"),
    ("cli.build_dataset_s", "s"), ("cli.build_dataset_self_s", "s"),
    ("cli.train_baseline_s", "s"), ("cli.train_baseline_self_s", "s"),
    ("cli.triage_s", "s"), ("cli.triage_self_s", "s"),
    ("cli.evaluate_s", "s"), ("cli.evaluate_self_s", "s"),
)


class _Frame:
    __slots__ = ("name", "start", "child", "id", "parent", "root")

    def __init__(self, name, start, id_, parent, root):
        self.name, self.start, self.child = name, start, 0.0
        self.id, self.parent, self.root = id_, parent, root


class Tracer:
    """Span and counter store. Calls pass straight through while `round` is None.

    One stack serves the whole process: the benchmark runs the program with
    `workers: 1`, so every traced call happens on the main thread.
    """

    def __init__(self):
        self.round: Optional[int] = None
        self.stack: list[_Frame] = []
        self._next_id = 0
        self.spans: list[dict] = []
        # (round, name) -> [calls, total_s, self_s]
        self.aggregates: dict = defaultdict(lambda: [0, 0.0, 0.0])
        # (round, name) -> value
        self.counters: dict = defaultdict(float)
        self.request_samples: list[float] = []
        self.distinct: dict[str, set] = defaultdict(set)  # per root span

    def _enter(self, name: str) -> _Frame:
        stack = self.stack
        self._next_id += 1
        parent = stack[-1] if stack else None
        frame = _Frame(name, time.perf_counter(), self._next_id,
                       parent.id if parent else None, parent.root if parent else self._next_id)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, keep_span: bool) -> float:
        end = time.perf_counter()
        stack = self.stack
        stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child += dur
        agg = self.aggregates[(self.round, frame.name)]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame.child
        if keep_span:
            self.spans.append({"id": frame.id, "parent": frame.parent, "root": frame.root,
                               "round": self.round, "name": frame.name,
                               "start": frame.start, "end": end,
                               "self_s": dur - frame.child})
        return dur

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(self.round, name)] += value

    @contextmanager
    def span(self, name: str):
        """A root span around one command; it scopes the distinct-key sets."""
        self.distinct.clear()
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, keep_span=True)
            if name == "cli.triage":
                for key, seen in self.distinct.items():
                    self.count(key, len(seen))

    def wrap(self, name, fn: Callable, *, keep_span: bool = False,
             observe: Optional[Callable] = None) -> Callable:
        """A traced stand-in for fn; `name` may be a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.round is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame, keep_span)
            if observe is not None:
                observe(args, kwargs, result, dur)
            return result

        return traced

    def patch(self, module, attr: str, name, **kwargs) -> None:
        """Wrap module.attr and rebind it wherever the program imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("reportable_triage"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    # --- derived per-layer metrics -------------------------------------

    def _round_values(self, rnd: int) -> dict[str, float]:
        def total(name):
            return self.aggregates.get((rnd, name), (0, 0.0, 0.0))[1]

        def self_s(name):
            return self.aggregates.get((rnd, name), (0, 0.0, 0.0))[2]

        def calls(name):
            return self.aggregates.get((rnd, name), (0, 0.0, 0.0))[0]

        def counter(name):
            return self.counters.get((rnd, name), 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        v = {
            "corpus.load_s": total("corpus.load"),
            "corpus.bytes_loaded": counter("corpus.bytes_loaded"),
            "corpus.write_s": total("corpus.write"),
            "sectioner.parse_s": total("sectioner.parse"),
            "sectioner.reports_parsed": calls("sectioner.parse"),
            "preprocess.assemble_s": total("preprocess.assemble"),
            "preprocess.assemble_self_s": self_s("preprocess.assemble"),
            "preprocess.assemble_calls": calls("preprocess.assemble"),
            "preprocess.assemble_distinct_ratio": ratio(
                counter("preprocess.assemble_distinct"),
                counter("preprocess.assemble_triage_calls")),
            "preprocess.normalize_s": total("preprocess.normalize"),
            "preprocess.normalize_chars": counter("preprocess.normalize_chars"),
            "preprocess.kept_char_ratio": ratio(counter("preprocess.kept_chars"),
                                                counter("preprocess.normalize_chars")),
            "preprocess.truncated_inputs": counter("preprocess.truncated_inputs"),
            "baseline.hash_s": total("baseline.hash"),
            "baseline.hash_calls": calls("baseline.hash"),
            "baseline.hash_distinct_ratio": ratio(counter("baseline.hash_distinct"),
                                                  counter("baseline.hash_triage_calls")),
            "baseline.features_hashed": counter("baseline.features_hashed"),
            "baseline.score_s": total("baseline.score"),
            "baseline.score_self_s": self_s("baseline.score"),
            "baseline.train_s": total("baseline.train"),
            "baseline.train_self_s": self_s("baseline.train"),
            "baseline.sgd_updates": counter("baseline.sgd_updates"),
            "baseline.loss_eval_s": total("baseline.loss_eval"),
            "baseline.model_load_s": total("baseline.model_load"),
            "baseline.model_save_s": total("baseline.model_save"),
            "remote.requests": calls("remote.request"),
            "remote.wait_s": total("remote.request"),
            "remote.service_s": counter("remote.service_s"),
            "remote.connections": counter("remote.connections"),
            "remote.bytes_sent": counter("remote.bytes_received_by_service"),
            "remote.bytes_received": counter("remote.bytes_sent_by_service"),
            "cascade.t1_s": total("cascade.t1"),
            "cascade.t2_s": total("cascade.t2"),
            "cascade.t2_reports": counter("cascade.t2_reports"),
            "cascade.combine_s": total("cascade.combine"),
            "cascade.serialize_s": total("cascade.serialize"),
            "cascade.outcome_bytes": counter("cascade.outcome_bytes"),
            "cascade.read_outcomes_s": total("cascade.read_outcomes"),
            "sampler.build_s": total("sampler.build"),
            "metrics.eval_s": total("metrics.eval"),
            "util.write_s": total("util.write"),
            "util.bytes_written": counter("util.bytes_written"),
        }
        for cmd in ("build_dataset", "train_baseline", "triage", "evaluate"):
            v[f"cli.{cmd}_s"] = total(f"cli.{cmd}")
            v[f"cli.{cmd}_self_s"] = self_s(f"cli.{cmd}")
        return v

    def per_layer(self, rounds: list[int]) -> dict[str, float]:
        """Median over rounds of each per-round value; request percentiles pooled."""
        per_round = [self._round_values(r) for r in rounds]
        out = {name: statistics.median(rv[name] for rv in per_round)
               for name in per_round[0]}
        p50, tail, _ = request_percentiles(self.request_samples)
        out["remote.request_s.p50"] = p50
        out["remote.request_s.tail"] = tail
        return out

    def write(self, path: str, extra: dict) -> None:
        doc = {
            **extra,
            "spans": self.spans,
            "aggregates": [{"round": r, "name": n, "calls": a[0], "total_s": a[1],
                            "self_s": a[2]} for (r, n), a in sorted(
                                self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1]))],
            "counters": [{"round": r, "name": n, "value": v}
                         for (r, n), v in sorted(self.counters.items())],
            "remote_request_samples_s": self.request_samples,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


def request_percentiles(samples: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile). The tail is the highest percentile
    with at least ten samples beyond it, the eleventh-largest sample; with
    fewer than forty samples there is no tail and it reads 0."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        return statistics.median(ordered), 0.0, 0.0
    return statistics.median(ordered), ordered[n - 11], 100.0 * (n - 10) / n


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each program module the workloads call."""
    from reportable_triage import cascade, corpus, metrics, preprocess, sampler
    from reportable_triage import sectioner, util
    from reportable_triage.backend import base, baseline, remote

    def on_load(args, kwargs, result, dur):
        tracer.count("corpus.bytes_loaded", os.path.getsize(args[0]))

    def on_write(args, kwargs, result, dur):
        tracer.count("util.bytes_written", len(args[1]))

    def in_triage() -> bool:
        return bool(tracer.stack) and tracer.stack[0].name == "cli.triage"

    def on_assemble(args, kwargs, result, dur):
        tracer.count("preprocess.kept_chars", len(result.text))
        if result.truncated:
            tracer.count("preprocess.truncated_inputs")
        if in_triage():
            report, variant = args[0], args[1]
            budget = args[2] if len(args) > 2 else kwargs.get("token_budget")
            fallback = args[3] if len(args) > 3 else kwargs.get("fallback_sections")
            tracer.count("preprocess.assemble_triage_calls")
            tracer.distinct["preprocess.assemble_distinct"].add(
                (report.report_id, variant, budget,
                 tuple(fallback) if fallback is not None else None))

    def on_normalize(args, kwargs, result, dur):
        tracer.count("preprocess.normalize_chars", len(args[0]))

    def on_hash(args, kwargs, result, dur):
        tokens = args[0]
        tracer.count("baseline.features_hashed", len(tokens) + max(len(tokens) - 1, 0))
        if in_triage():
            tracer.count("baseline.hash_triage_calls")
            tracer.distinct["baseline.hash_distinct"].add(hash(tuple(tokens)))

    def on_train(args, kwargs, result, dur):
        tracer.count("baseline.sgd_updates", len(args[0]) * args[1].epochs)

    def on_request(args, kwargs, result, dur):
        tracer.request_samples.append(dur)

    def on_tier(args, kwargs, result, dur):
        if args[1].task.value == "t2":
            tracer.count("cascade.t2_reports", len(args[0]))

    def on_serialize(args, kwargs, result, dur):
        tracer.count("cascade.outcome_bytes", len(result.encode("utf-8")) + 1)

    p = tracer.patch
    p(corpus, "load_corpus", "corpus.load", keep_span=True, observe=on_load)
    p(corpus, "write_corpus", "corpus.write", keep_span=True)
    p(util, "atomic_write_bytes", "util.write", keep_span=True, observe=on_write)
    p(sectioner, "parse_sections", "sectioner.parse")
    p(preprocess, "assemble_input", "preprocess.assemble", observe=on_assemble)
    p(preprocess, "normalize_text", "preprocess.normalize", observe=on_normalize)
    p(baseline, "hash_token_features", "baseline.hash", observe=on_hash)
    p(baseline, "score_batch", "baseline.score", keep_span=True)
    p(baseline, "train_baseline", "baseline.train", keep_span=True, observe=on_train)
    p(baseline, "regularized_loss", "baseline.loss_eval", keep_span=True)
    p(baseline, "load_baseline", "baseline.model_load", keep_span=True)
    p(baseline, "save_baseline", "baseline.model_save", keep_span=True)
    p(remote, "remote_score", "remote.request", keep_span=True, observe=on_request)
    p(cascade, "run_tier", lambda args: f"cascade.{args[1].task.value}",
      keep_span=True, observe=on_tier)
    p(cascade, "or_combine", "cascade.combine")
    p(base, "decide", "cascade.combine")
    p(cascade, "dumps_outcome", "cascade.serialize", observe=on_serialize)
    p(cascade, "read_outcomes", "cascade.read_outcomes", keep_span=True)
    p(sampler, "build_dataset", "sampler.build", keep_span=True)
    for fn in ("eval_report", "render_eval_table", "dumps_eval"):
        p(metrics, fn, "metrics.eval", keep_span=True)
