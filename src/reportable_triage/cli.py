"""Command-line surface: synth, build-dataset, train-baseline, triage, evaluate.

Exit codes are a stable automation contract: 0 success, 1 validation error
(bad arguments, malformed data, inconsistent config), 2 runtime failure
(transport errors, backend failures, I/O errors).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from . import cascade, metrics, sampler
from .backend.base import ClassifierBackend
from .backend.baseline import BaselineBackend, load_baseline, save_baseline, train_baseline
from .backend.remote import RemoteBackend
from .config import MemberConfig, RunConfig, load_run_config
from .corpus import Corpus, SynthSpec, Tier, load_corpus, synth_corpus, write_corpus
from .errors import ConfigurationError, TriageError, ValidationError
from .preprocess import assemble_input
from .sectioner import ensure_sections
from .util import atomic_write_text

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1), not argparse's default 2
    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="reportable-triage",
                     description="Two-tier pathology report triage pipeline")
    parser.add_argument("--config", help="run configuration JSON file")
    parser.add_argument("--out-dir", help="override the config's output directory")
    parser.add_argument("--seed", type=int, help="seed fallback for commands that sample")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown fields in corpus files")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic labeled corpus")
    p.add_argument("--n", type=int, required=True, help="number of reports")
    p.add_argument("--cancer-frac", type=float, default=0.21)
    p.add_argument("--reportable-frac", type=float, default=0.8,
                   help="reportable fraction within cancer records")
    p.add_argument("--signal", type=float, default=1.0,
                   help="vocabulary signal strength in [0,1]")
    p.add_argument("--seed", type=int, dest="synth_seed", help="generator seed")
    p.add_argument("--out", required=True, help="output corpus file")

    p = sub.add_parser("build-dataset", help="split and undersample one tier's dataset")
    p.add_argument("--tier", required=True, choices=[t.value for t in Tier])
    p.add_argument("--corpus", help="override the config corpus path")

    p = sub.add_parser("train-baseline", help="train one tier member's baseline model")
    p.add_argument("--tier", required=True, choices=[t.value for t in Tier])
    p.add_argument("--variant", required=True, help="pipeline variant: a or b")

    p = sub.add_parser("triage", help="run the two-tier cascade over a corpus")
    p.add_argument("--corpus", help="override the config corpus path")
    p.add_argument("--out", help="outcomes file (default <out_dir>/outcomes.jsonl)")
    p.add_argument("--t2-scope", choices=["predicted", "gold"], default="predicted",
                   help="score tier 2 on predicted-cancer reports (production) "
                        "or on gold cancer-positive reports (evaluation)")

    p = sub.add_parser("evaluate", help="score an outcomes file against gold labels")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--gold", required=True, help="gold-labeled corpus file")
    p.add_argument("--tier", required=True, choices=[t.value for t in Tier])
    p.add_argument("--gating", choices=["predicted", "gold"], default="predicted",
                   help="tier-2 evaluation set: reports that received t2 results "
                        "(predicted) or every gold-annotated report (gold)")
    p.add_argument("--out", help="directory for eval files (default <out_dir>)")
    return parser


def _load_config(args) -> RunConfig:
    if not args.config:
        raise ConfigurationError("this command requires --config")
    cfg = load_run_config(args.config)
    if args.out_dir:
        cfg = replace(cfg, out_dir=Path(args.out_dir).resolve())
    return cfg


def _resolve_corpus(args, cfg: Optional[RunConfig]) -> Path:
    if getattr(args, "corpus", None):
        return Path(args.corpus)
    if cfg is not None and cfg.corpus_path is not None:
        return cfg.corpus_path
    raise ConfigurationError("no corpus given: pass --corpus or set 'corpus' in the config")


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ValidationError(f"{what} not found: {path}")
    return path


def _make_backend(cfg: RunConfig, tier: Tier, member: MemberConfig) -> ClassifierBackend:
    if member.kind == "native_baseline":
        model_path = _require_file(cfg.model_file(member),
                                   f"model file for {member.backend_id!r}")
        return BaselineBackend(model=load_baseline(model_path),
                               backend_id=member.backend_id)
    endpoint = cfg.remote.endpoint_for(tier)
    if not endpoint:
        raise ConfigurationError(
            f"member {member.backend_id!r} is remote but no endpoint is configured "
            f"for {tier.value} (config remote.endpoints or TRIAGE_REMOTE_ENDPOINT_*)"
        )
    return RemoteBackend(endpoint=endpoint, task=tier, backend_id=member.backend_id,
                         timeout=cfg.remote.timeout, max_retries=cfg.remote.max_retries)


def _sectioned(corpus: Corpus, cfg: RunConfig) -> Corpus:
    """Parse sections for any record that arrived with raw text only."""
    table = cfg.synonym_table()
    records = [replace(rec, report=ensure_sections(rec.report, table))
               for rec in corpus.records]
    return Corpus(records=records)


# --- commands ----------------------------------------------------------------

def cmd_synth(args) -> int:
    seed = args.synth_seed if args.synth_seed is not None else args.seed
    if seed is None:
        raise ValidationError("synth requires a seed (--seed)")
    spec = SynthSpec(
        n_reports=args.n,
        cancer_fraction=args.cancer_frac,
        reportable_fraction_within_cancer=args.reportable_frac,
        vocabulary_signal_strength=args.signal,
    )
    corpus = synth_corpus(spec, seed)
    write_corpus(corpus, args.out)
    counts = Counter(r.t1_label.value for r in corpus)
    print(f"wrote {len(corpus)} records to {args.out} "
          f"(cancer={counts.get('cancer', 0)}, non_cancer={counts.get('non_cancer', 0)})")
    return EXIT_OK


def cmd_build_dataset(args) -> int:
    cfg = _load_config(args)
    tier = Tier(args.tier)
    settings = cfg.tier(tier)
    corpus_path = _require_file(_resolve_corpus(args, cfg), "corpus file")
    corpus = load_corpus(corpus_path, strict=args.strict)

    built = sampler.build_dataset(corpus, tier, settings.split, settings.policy)

    dataset_dir = cfg.dataset_dir(tier)
    train_path = dataset_dir / "train.jsonl"
    test_path = dataset_dir / "test.jsonl"
    write_corpus(built.train, train_path)
    write_corpus(built.test, test_path)
    manifest = built.manifest(train_path.name, test_path.name)
    atomic_write_text(dataset_dir / "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{tier.value}: train={len(built.train)} test={len(built.test)} "
          f"(before undersample: {built.train_counts_before}; "
          f"after: {built.train_counts})")
    print(f"wrote {train_path}, {test_path}, {dataset_dir / 'manifest.json'}")
    return EXIT_OK


def _training_pairs(corpus: Corpus, tier: Tier, member: MemberConfig):
    positive = tier.positive
    pairs = []
    for record in corpus:
        label = record.label_for(tier)
        if label is None:
            raise ValidationError(f"record {record.report_id!r} has no {tier.value} label")
        inp = assemble_input(record.report, member.variant, member.token_budget,
                             member.fallback_sections)
        pairs.append((inp, 1 if label == positive else 0))
    return pairs


def cmd_train_baseline(args) -> int:
    cfg = _load_config(args)
    tier = Tier(args.tier)
    settings = cfg.tier(tier)
    from .preprocess import PipelineVariant

    variant = PipelineVariant.parse(args.variant)
    member = next((m for m in settings.members if m.variant is variant), None)
    if member is None:
        raise ConfigurationError(f"no {tier.value} member uses variant {args.variant!r}")
    if member.kind != "native_baseline":
        raise ConfigurationError(
            f"member {member.backend_id!r} is {member.kind}, not native_baseline"
        )
    train_path = _require_file(cfg.dataset_dir(tier) / "train.jsonl",
                               f"{tier.value} training set (run build-dataset first)")
    corpus = _sectioned(load_corpus(train_path, strict=args.strict), cfg)
    pairs = _training_pairs(corpus, tier, member)
    model = train_baseline(pairs, settings.train, settings.train_seed)
    model_path = cfg.model_file(member)
    save_baseline(model, model_path)
    print(f"trained {member.backend_id} on {len(pairs)} records "
          f"(seed={settings.train_seed}, final_loss={model.final_loss:.6f})")
    print(f"wrote {model_path}")
    return EXIT_OK


def cmd_triage(args) -> int:
    cfg = _load_config(args)
    t1, t2 = (
        cascade.TierConfig(task=s.task, members=s.members,
                           backends=tuple(_make_backend(cfg, s.task, m) for m in s.members))
        for s in (cfg.tier(Tier.T1), cfg.tier(Tier.T2))
    )
    corpus_path = _require_file(_resolve_corpus(args, cfg), "corpus file")
    corpus = _sectioned(load_corpus(corpus_path, strict=args.strict), cfg)

    t2_ids: Optional[set] = None
    if args.t2_scope == "gold":
        t2_ids = {r.report_id for r in corpus if r.t2_label is not None}
        if not t2_ids:
            raise ValidationError(
                "--t2-scope gold requires t2 labels in the input corpus"
            )

    reports = [r.report for r in corpus]
    outcomes = cascade.triage(reports, t1, t2, t2_report_ids=t2_ids)
    if args.t2_scope == "predicted":
        cascade.check_gating_soundness(outcomes)

    out_path = Path(args.out) if args.out else cfg.out_dir / "outcomes.jsonl"
    body = "".join(cascade.dumps_outcome(o) + "\n" for o in outcomes)
    atomic_write_text(out_path, body)
    summary = Counter(o.final.value for o in outcomes)
    print(f"triaged {len(outcomes)} reports -> {out_path}")
    for label in cascade.FinalLabel:
        print(f"  {label.value}: {summary.get(label.value, 0)}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    tier = Tier(args.tier)
    outcomes = cascade.read_outcomes(_require_file(Path(args.outcomes), "outcomes file"))
    gold = load_corpus(_require_file(Path(args.gold), "gold corpus"), strict=args.strict)
    named_reports, n_gold = cascade.evaluate_outcomes(outcomes, gold, tier, args.gating)
    excluded = sum(r.label_for(tier) is not None for r in gold) - n_gold
    if excluded:
        logger.info("predicted gating: excluding %d gold-annotated reports "
                    "without t2 results", excluded)

    table = metrics.render_eval_table(named_reports, tier)
    doc = metrics.dumps_eval(named_reports, tier,
                             extra={"gating": args.gating, "n_gold": n_gold})

    if args.out:
        out_dir = Path(args.out)
    elif args.config:
        out_dir = _load_config(args).out_dir
    else:
        out_dir = Path(".")
    json_path = out_dir / f"eval_{tier.value}.json"
    txt_path = out_dir / f"eval_{tier.value}.txt"
    atomic_write_text(json_path, doc)
    atomic_write_text(txt_path, table)
    print(table, end="")
    print(f"wrote {json_path}, {txt_path}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "build-dataset": cmd_build_dataset,
    "train-baseline": cmd_train_baseline,
    "triage": cmd_triage,
    "evaluate": cmd_evaluate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if args.command is None:
        parser.print_help()
        return EXIT_VALIDATION
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
