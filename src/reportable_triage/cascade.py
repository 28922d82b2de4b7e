"""Two-tier orchestration and the OR-ensemble combiner.

Each tier runs exactly two members (one synoptic-first, one diagnosis-first),
and a report is positive when at least one member says so. The OR rule means
the ensemble's missed positives are exactly the intersection of the members'
missed positives, which is the whole point: sensitivity never drops below the
better member.

Tier 2 runs on the reports tier 1 called cancer (production gating). For
evaluation against gold tier-2 annotations there is an explicit-scope mode
that scores tier 2 for a caller-supplied report set instead; outcomes written
that way are evaluation artifacts, not production triage.

run_tier returns, with its results, the input each member scored for each
report. triage hands tier 2 the inputs of the selected reports from the
tier-1 member that assembles inputs the same way, so no report is assembled
twice for the same settings.

read_outcomes validates an outcomes file completely as it loads it, the OR
rule included; evaluate_outcomes joins it to gold labels without I/O.

Member failure fails the whole batch: silently degrading to a single-model
"ensemble" would misstate the sensitivity guarantee.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from . import metrics
from .backend.base import ClassifierBackend, Decision, decide
from .config import MemberConfig, check_members
from .corpus import Corpus, PathologyReport, T1Label, T2Label, Tier
from .errors import ConfigurationError, TierExecutionError, TriageError, ValidationError
from .preprocess import NormalizedInput, assemble_input
from .util import lone_surrogate, open_json, parse_json

DEFAULT_BATCH_SIZE = 256


class FinalLabel(str, Enum):
    NON_CANCER = "non_cancer"
    CANCER_NON_REPORTABLE = "cancer_non_reportable"
    CANCER_REPORTABLE = "cancer_reportable"


@dataclass(frozen=True)
class TierConfig:
    """A tier's two members, each scored by the backend at the same index."""

    task: Tier
    members: tuple[MemberConfig, MemberConfig]
    backends: tuple[ClassifierBackend, ClassifierBackend]

    def __post_init__(self) -> None:
        check_members(self.members, f"{self.task.value} tier")
        if len(self.backends) != len(self.members):
            raise ConfigurationError(f"{self.task.value} tier: one backend per member")


@dataclass(frozen=True)
class EnsembleResult:
    member_decisions: tuple[Decision, ...]
    combined_label: T1Label | T2Label

    @property
    def is_positive(self) -> bool:
        return self.combined_label is self.member_decisions[0].task.positive


@dataclass(frozen=True)
class TriageOutcome:
    report_id: str
    t1: EnsembleResult
    t2: Optional[EnsembleResult]
    final: FinalLabel


def or_combine(decisions: Sequence[Decision]) -> T1Label | T2Label:
    """Positive iff at least one member decision is positive."""
    if not decisions:
        raise ConfigurationError("or_combine requires at least one decision")
    task = decisions[0].task
    combined = task.negative
    for d in decisions:
        if d.task is not task:
            raise ConfigurationError("or_combine received decisions from mixed tasks")
        if d.is_positive:
            combined = task.positive
    return combined


def _assembly_key(member: MemberConfig) -> tuple:
    """Members with equal keys assemble the same input from a report."""
    return member.variant, member.token_budget, tuple(member.fallback_sections)


def _score_batch(
    member: MemberConfig,
    backend: ClassifierBackend,
    task: Tier,
    batch: Sequence[PathologyReport],
    inputs: Optional[Sequence[NormalizedInput]],
) -> tuple[Sequence[NormalizedInput], list[Decision]]:
    """The batch's inputs (assembled here unless given) and the member's decisions."""
    if inputs is None:
        inputs = [assemble_input(r, member.variant, member.token_budget,
                                 member.fallback_sections) for r in batch]
    try:
        scores = backend.score_batch(inputs)
    except TriageError as exc:
        raise TierExecutionError(
            f"backend {member.backend_id!r} failed on reports "
            f"{batch[0].report_id!r}..{batch[-1].report_id!r}: {exc}"
        ) from exc
    if len(scores) != len(batch):
        raise TierExecutionError(
            f"backend {member.backend_id!r} returned {len(scores)} scores "
            f"for {len(batch)} reports"
        )
    return inputs, [decide(s, member.threshold, task, member.backend_id) for s in scores]


def run_tier(
    reports: Sequence[PathologyReport],
    config: TierConfig,
    batch_size: int = DEFAULT_BATCH_SIZE,
    *,
    inputs: Sequence[Optional[Sequence[NormalizedInput]]] = (),
) -> tuple[list[EnsembleResult], tuple[Sequence[NormalizedInput], ...]]:
    """Score every report with both members; order-preserving, all-or-nothing.

    Returns the ensemble result per report and, per member, the input it
    scored for each report. inputs[m], where given and not None, holds member
    m's input for each report, so that member assembles nothing. The first
    member scores all its batches, in report order, before the second member
    scores any; the benchmark's remote check matches the service's requests to
    members by this order.
    """
    member_inputs: list[list[NormalizedInput]] = []
    decisions: list[list[Decision]] = []
    for mi, (member, backend) in enumerate(zip(config.members, config.backends)):
        given = inputs[mi] if mi < len(inputs) else None
        scored: list[NormalizedInput] = []
        member_decisions: list[Decision] = []
        for start in range(0, len(reports), batch_size):
            batch_inputs, batch_decisions = _score_batch(
                member, backend, config.task, reports[start:start + batch_size],
                None if given is None else given[start:start + batch_size])
            scored.extend(batch_inputs)
            member_decisions.extend(batch_decisions)
        member_inputs.append(scored)
        decisions.append(member_decisions)
    results = [EnsembleResult(member_decisions=pair, combined_label=or_combine(pair))
               for pair in zip(*decisions)]
    return results, tuple(member_inputs)


def triage(
    reports: Sequence[PathologyReport],
    t1: TierConfig,
    t2: TierConfig,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    t2_report_ids: Optional[set[str]] = None,
) -> list[TriageOutcome]:
    """Run the cascade over reports, preserving input order.

    With t2_report_ids=None (production mode) tier 2 runs exactly on the
    reports tier 1 called cancer. Passing an explicit id set scores tier 2
    for those reports instead (gold-gated evaluation); the final label still
    follows production semantics, i.e. a tier-1-negative report stays
    non_cancer no matter what tier 2 said.

    A tier-2 member whose assembly key (variant, token budget, fallback
    sections) equals a tier-1 member's reads, from the inputs tier 1 returned,
    the input that member scored, so tier 2 assembles it again for no report.
    """
    if t1.task is not Tier.T1 or t2.task is not Tier.T2:
        raise ConfigurationError("triage needs a t1 config and a t2 config, in that order")
    t1_results, t1_inputs = run_tier(reports, t1, batch_size)

    if t2_report_ids is None:
        selected = [i for i, res in enumerate(t1_results) if res.is_positive]
    else:
        selected = [i for i, r in enumerate(reports) if r.report_id in t2_report_ids]
    t1_keys = [_assembly_key(m) for m in t1.members]
    t2_inputs = [[t1_inputs[t1_keys.index(k)][i] for i in selected] if k in t1_keys else None
                 for k in map(_assembly_key, t2.members)]
    t2_results, _ = run_tier([reports[i] for i in selected], t2, batch_size, inputs=t2_inputs)
    t2_by_index = dict(zip(selected, t2_results))

    outcomes: list[TriageOutcome] = []
    for i, (report, t1_res) in enumerate(zip(reports, t1_results)):
        t2_res = t2_by_index.get(i)
        if not t1_res.is_positive:
            final = FinalLabel.NON_CANCER
        elif t2_res is not None and t2_res.is_positive:
            final = FinalLabel.CANCER_REPORTABLE
        else:
            final = FinalLabel.CANCER_NON_REPORTABLE
        outcomes.append(
            TriageOutcome(report_id=report.report_id, t1=t1_res, t2=t2_res, final=final)
        )
    return outcomes


def check_gating_soundness(outcomes: Iterable[TriageOutcome]) -> None:
    """Assert the production invariant: t2 present iff t1 combined positive."""
    for outcome in outcomes:
        has_t2 = outcome.t2 is not None
        if has_t2 != outcome.t1.is_positive:
            raise ValidationError(
                f"outcome {outcome.report_id!r}: t2 "
                f"{'present' if has_t2 else 'absent'} with t1 "
                f"{'positive' if outcome.t1.is_positive else 'negative'}"
            )


# --- outcome file serialization ---------------------------------------------

def _ensemble_to_dict(res: EnsembleResult) -> dict:
    return {
        "combined": res.combined_label.value,
        "combined_by": "or",
        "members": [
            {
                "backend_id": d.backend_id,
                "label": d.label.value,
                "probability": d.score.probability,
                "threshold": d.threshold,
            }
            for d in res.member_decisions
        ],
    }


def outcome_to_dict(outcome: TriageOutcome) -> dict:
    return {
        "report_id": outcome.report_id,
        "final": outcome.final.value,
        "t1": _ensemble_to_dict(outcome.t1),
        "t2": _ensemble_to_dict(outcome.t2) if outcome.t2 is not None else None,
    }


def dumps_outcome(outcome: TriageOutcome) -> str:
    return json.dumps(outcome_to_dict(outcome), ensure_ascii=False, separators=(",", ":"))


# per tier, label value -> whether it is the tier's positive label
_POSITIVE = {task: {label.value: label is task.positive for label in task.label_type}
             for task in Tier}


def _check_block(block, task: Tier) -> None:
    """Reject a tier block that is malformed or whose combined label is not
    the OR of its members' labels, which FN(combined) = FN(A) ∩ FN(B) needs."""
    members = block.get("members") if isinstance(block, dict) else None
    if not isinstance(members, list):
        raise ValidationError(f"{task.value} is not a tier block with a members list")
    if len(members) != 2 or not isinstance(members[0], dict) or not isinstance(members[1], dict):
        raise ValidationError(f"{task.value} block needs exactly two member objects")
    a, b = members
    if (not isinstance(a.get("backend_id"), str) or not isinstance(b.get("backend_id"), str)
            or a["backend_id"] == b["backend_id"]):
        raise ValidationError(f"{task.value} members need distinct string backend_ids")
    positive = _POSITIVE[task]
    try:
        a_pos, b_pos, combined_pos = (positive[a.get("label")], positive[b.get("label")],
                                      positive[block.get("combined")])
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValidationError(
            f"{task.value} block has a label that is not one of: {', '.join(positive)}"
        ) from None
    if combined_pos != (a_pos or b_pos):
        raise ValidationError(f"{task.value} combined label is not the OR of its members' labels")


def _check_outcome(line: str, seen: dict[str, dict]) -> dict:
    """The outcome one file line holds, validated; `seen` holds the earlier lines'."""
    obj = parse_json(line)
    if not isinstance(obj, dict):
        raise ValidationError("not a JSON object")
    for key in ("report_id", "final", "t1"):
        if key not in obj:
            raise ValidationError(f"missing field {key!r}")
    if not isinstance(obj["report_id"], str):
        raise ValidationError("report_id is not a string")
    if obj["report_id"] in seen:
        raise ValidationError(f"outcomes file repeats report_id {obj['report_id']!r}")
    _check_block(obj["t1"], Tier.T1)
    if obj.get("t2") is not None:
        _check_block(obj["t2"], Tier.T2)
    # parse_json rejected bytes that are not UTF-8, so only a \ud800-style
    # escape can leave a lone surrogate, which the evaluation files could not
    # hold; a one-character search is the cheapest test for an escape
    if "\\" in line:
        ids = [obj["report_id"]] + [m["backend_id"] for key in ("t1", "t2")
                                    if obj.get(key) is not None for m in obj[key]["members"]]
        if any(lone_surrogate(i) >= 0 for i in ids):
            raise ValidationError(
                "a report_id or backend_id holds a lone surrogate (not encodable as UTF-8)")
    return obj


def read_outcomes(path) -> dict[str, dict]:
    """Load an outcomes JSONL file keyed by report_id, validating every line.

    A line is UTF-8 JSON: an object with a string report_id no earlier line
    has, a final field, a t1 tier block and a t2 that is absent, null or a
    tier block. A tier block holds exactly two members with distinct string
    backend_ids and labels of its tier, and a combined label that is the OR
    of theirs. Neither kind of id may hold a lone surrogate.
    """
    out: dict[str, dict] = {}
    with open_json(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = _check_outcome(line, out)
            except ValidationError as exc:
                raise ValidationError(f"{path}: line {lineno}: {exc}") from None
            out[obj["report_id"]] = obj
    return out


def _listed(ids: list[str]) -> str:
    return f"{', '.join(ids[:20])}{' ...' if len(ids) > 20 else ''}"


def evaluate_outcomes(outcomes: dict[str, dict], gold: Corpus, tier: Tier, gating: str
                      ) -> tuple[list[tuple[str, metrics.EvalReport]], int]:
    """Score each member and the ensemble against the gold records labeled for tier.

    Returns the named reports (member A and member B in file order, then
    "combined") and the number of gold records evaluated. For t2, gating
    "gold" needs a t2 result for every labeled record; "predicted" evaluates
    the labeled records that have one.
    """
    labeled = [r for r in gold if r.label_for(tier) is not None]
    if not labeled:
        raise ValidationError(f"gold corpus has no {tier.value} labels")
    missing = [r.report_id for r in labeled if r.report_id not in outcomes]
    if missing:
        raise ValidationError(
            f"unjoinable report_ids (gold records without outcomes): {_listed(missing)}")

    key = tier.value
    if tier is Tier.T2:
        lacking = [r.report_id for r in labeled if outcomes[r.report_id].get(key) is None]
        if gating == "gold" and lacking:
            raise ValidationError(
                f"unjoinable report_ids (gold t2 records without t2 results, "
                f"was triage run with --t2-scope gold?): {_listed(lacking)}"
            )
        labeled = [r for r in labeled if outcomes[r.report_id].get(key) is not None]
        if not labeled:
            raise ValidationError("no evaluable records remain under predicted gating")

    golds = [r.label_for(tier) for r in labeled]
    labels = {label.value: label for label in tier.label_type}
    # per model name, in first-seen order: member A, member B, then the ensemble
    preds: dict[str, list] = {}
    for r in labeled:
        block = outcomes[r.report_id][key]
        rows = {m["backend_id"]: m["label"] for m in block["members"]}
        rows["combined"] = block["combined"]
        if len(rows) != 3:
            raise ValidationError(f"outcome {r.report_id!r}: a member's backend_id is 'combined'")
        for name, value in rows.items():
            if name not in preds:
                preds[name] = []
            preds[name].append(labels[value])
    for name, model_preds in preds.items():
        if len(model_preds) != len(golds):
            raise ValidationError(
                f"outcomes file is inconsistent: model {name!r} appears in "
                f"{len(model_preds)} of {len(golds)} evaluated records"
            )
    return [(name, metrics.eval_report(p, golds, tier)) for name, p in preds.items()], len(labeled)
