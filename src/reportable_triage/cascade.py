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

triage assembles each report's inputs in one place, one per distinct
assembly key of its members, and reads each of the report's sections once
for all of them. Both tiers look their members' inputs up by key, so tier 2
reuses what tier 1 assembled and no report is assembled twice for the same
settings. run_tier scores one batch at a time and assembles the next while
a service scores it. A tier-2 member that featurizes as a tier-1 member does
scores that member's features of each batch while tier 1 runs, so tier 2
featurizes nothing for it and no features outlive their batch.

triage returns each outcome as the dict an outcomes line holds, which
dumps_outcome writes. read_outcomes reads a file back into equal dicts keyed
by report_id, validating it completely, the OR rule and the final-label rule
included; evaluate_outcomes joins it to gold labels without I/O.

Member failure, a score that is not a number in [0, 1] included, fails the
whole batch: silently degrading to a single-model "ensemble" would misstate
the sensitivity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional, Sequence

from . import metrics
from .backend.base import ClassifierBackend, decide
from .config import MemberConfig, check_members
from .corpus import Corpus, PathologyReport, Tier
from .errors import TriageError, ValidationError
from .preprocess import assemble_input
from .util import dumps_line, read_field, read_json_lines

DEFAULT_BATCH_SIZE = 256


class FinalLabel(str, Enum):
    NON_CANCER = "non_cancer"
    CANCER_NON_REPORTABLE = "cancer_non_reportable"
    CANCER_REPORTABLE = "cancer_reportable"


# per tier, its label values indexed by whether a label is positive
_LABELS = {task: (task.negative.value, task.positive.value) for task in Tier}
# per tier, label value -> whether it is the tier's positive label
_POSITIVE = {task: {label.value: label is task.positive for label in task.label_type}
             for task in Tier}


def _positive(block: dict, task: Tier) -> bool:
    """Whether a tier block of a valid outcome is positive."""
    return _POSITIVE[task][block["combined"]]


@dataclass(frozen=True)
class TierConfig:
    """A tier's two members, each scored by the backend at the same index."""

    task: Tier
    members: tuple[MemberConfig, MemberConfig]
    backends: tuple[ClassifierBackend, ClassifierBackend]

    def __post_init__(self) -> None:
        check_members(self.members, f"{self.task.value} tier")
        if len(self.backends) != len(self.members):
            raise ValidationError(f"{self.task.value} tier: one backend per member")


def final_label(t1_positive: bool, t2_positive: Optional[bool]) -> FinalLabel:
    """A report's final label; a t1-negative one is non_cancer whatever t2 said."""
    if not t1_positive:
        return FinalLabel.NON_CANCER
    return FinalLabel.CANCER_REPORTABLE if t2_positive else FinalLabel.CANCER_NON_REPORTABLE


def or_combine(member_positive: Sequence[bool]) -> bool:
    """Positive iff at least one member is positive."""
    return any(member_positive)


def _assembly_key(member: MemberConfig) -> tuple:
    """Members with equal keys assemble the same input from a report."""
    return member.variant, member.token_budget, tuple(member.fallback_sections)


def _assemble(report: PathologyReport, keys: Iterable[tuple], into: dict) -> dict:
    """into, given the report's input for each key it lacks; the report's
    sections are read once for all of them."""
    read: dict = {}
    for key in keys:
        if key not in into:
            into[key] = assemble_input(report, *key, read)
    return into


def _score_batch(
    member: MemberConfig,
    backend: ClassifierBackend,
    batch: Sequence[PathologyReport],
    features: Sequence,
) -> list[float]:
    """The member's probabilities for the batch's features, each checked to
    be a number in [0, 1]."""
    failed = (f"backend {member.backend_id!r} failed on reports "
              f"{batch[0].report_id!r}..{batch[-1].report_id!r}")
    try:
        scores = backend.score_features(features)
    except TriageError as exc:
        raise TriageError(f"{failed}: {exc}") from exc
    if len(scores) != len(batch):
        raise TriageError(
            f"backend {member.backend_id!r} returned {len(scores)} scores "
            f"for {len(batch)} reports"
        )
    for i, p in enumerate(scores):
        # NaN fails the range test
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
            raise TriageError(f"{failed}: score {i} is not a number in [0, 1]: {p!r}")
    return scores


def run_tier(
    reports: Sequence[PathologyReport],
    config: TierConfig,
    batch_size: int = DEFAULT_BATCH_SIZE,
    *,
    inputs: Sequence[dict],
    assemble: Callable[[int], None] = lambda n: None,
    also: Sequence[Optional[tuple[MemberConfig, ClassifierBackend, list]]] = (None, None),
    given: Sequence[Optional[Sequence[float]]] = (None, None),
) -> list[dict]:
    """Each report's tier block, as an outcomes line holds it; order-preserving, all-or-nothing.

    inputs[i] maps each member's assembly key to its input for report i
    (see _assemble). inputs may start short: assemble(n) makes it hold the
    inputs of the first n reports. Per batch, a member's backend featurizes
    and sends the batch's inputs, assemble readies the next batch's while
    they are scored, and the features are dropped once scored. The first
    member scores all its batches, in report order, before the second
    member scores any; the benchmark's remote check matches the service's
    requests to members by this order.

    also[m], when given, is (member, backend, into): another tier's member
    that scores member m's features of each batch too, and appends its
    probability of each report to the list into. given[m], when given, is
    member m's probability of each report, scored before; member m then
    featurizes and scores nothing.
    """
    probabilities: list[Sequence[float]] = []
    for member, backend, rider, scores in zip(config.members, config.backends, also, given):
        if scores is None:
            scores = []
            scorers = [(member, backend, scores)] + ([] if rider is None else [rider])
            key = _assembly_key(member)
            assemble(batch_size)
            for start in range(0, len(reports), batch_size):
                stop = start + batch_size
                features = backend.featurize([by_key[key] for by_key in inputs[start:stop]])
                backend.send(features)
                # outside _score_batch: a report that fails to assemble is not the backend's fault
                assemble(stop + batch_size)
                for scorer, scorer_backend, into in scorers:
                    into += _score_batch(scorer, scorer_backend, reports[start:stop], features)
                # dropped now, not when the next batch's features replace them:
                # two batches' rows alive at once would raise peak RSS
                del features
        probabilities.append(scores)
    labels = _LABELS[config.task]
    blocks = []
    for pair in zip(*probabilities):
        positive = [decide(p, m.threshold) for p, m in zip(pair, config.members)]
        blocks.append({
            "combined": labels[or_combine(positive)],
            "combined_by": "or",
            "members": [{"backend_id": m.backend_id, "label": labels[is_positive],
                         "probability": p, "threshold": m.threshold}
                        for m, p, is_positive in zip(config.members, pair, positive)],
        })
    return blocks


def triage(
    reports: Sequence[PathologyReport],
    t1: TierConfig,
    t2: TierConfig,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    t2_report_ids: Optional[set[str]] = None,
) -> list[dict]:
    """Each report's outcome, in input order, as an outcomes line holds it;
    t2 is None where tier 2 did not score the report.

    With t2_report_ids=None (production mode) tier 2 runs exactly on the
    reports tier 1 called cancer. Passing an explicit id set scores tier 2
    for those reports instead (gold-gated evaluation); the final label still
    follows production semantics, i.e. a tier-1-negative report stays
    non_cancer no matter what tier 2 said.

    Each report is assembled once per distinct assembly key (variant, token
    budget, fallback sections) of the members that score it, and its
    sections are read once for both t1 keys. Tier 1's first member has each
    next batch assembled, for both t1 keys, while its current batch is
    scored, so a remote service scores while the client assembles. A tier-2
    member whose key equals a tier-1 member's reads the input that member
    scored; a t2 key no t1 member shares is assembled after tier 1, for the
    reports tier 2 scores.

    A tier-2 member whose key and feature_dim (not None) also equal a
    tier-1 member's scores that member's features of every report, one batch
    at a time, while tier 1 runs; tier 2 then reads its probabilities of the
    reports it selected and featurizes nothing for it.
    """
    if t1.task is not Tier.T1 or t2.task is not Tier.T2:
        raise ValidationError("triage needs a t1 config and a t2 config, in that order")
    t1_keys = [_assembly_key(m) for m in t1.members]
    t2_keys = [_assembly_key(m) for m in t2.members]
    # per t2 member, its probability of every report if it scores a t1 member's features
    shared: list[Optional[list[float]]] = [None, None]
    also: list[Optional[tuple]] = [None, None]
    for j, (t2_member, t2_backend, t2_key) in enumerate(zip(t2.members, t2.backends, t2_keys)):
        for i, (t1_key, t1_backend) in enumerate(zip(t1_keys, t1.backends)):
            if (t1_key == t2_key and t1_backend.feature_dim is not None
                    and t1_backend.feature_dim == t2_backend.feature_dim):
                shared[j] = []
                also[i] = (t2_member, t2_backend, shared[j])
    inputs: list[dict] = []

    def assemble(n: int) -> None:
        inputs.extend(_assemble(r, t1_keys, {}) for r in reports[len(inputs):n])

    t1_blocks = run_tier(reports, t1, batch_size, inputs=inputs, assemble=assemble, also=also)

    if t2_report_ids is None:
        selected = [i for i, block in enumerate(t1_blocks) if _positive(block, Tier.T1)]
    else:
        selected = [i for i, r in enumerate(reports) if r.report_id in t2_report_ids]
    t2_blocks = run_tier([reports[i] for i in selected], t2, batch_size,
                         inputs=[_assemble(reports[i], t2_keys, inputs[i]) for i in selected],
                         given=[None if s is None else [s[i] for i in selected] for s in shared])
    t2_by_index = dict(zip(selected, t2_blocks))

    outcomes = []
    for i, (report, t1_block) in enumerate(zip(reports, t1_blocks)):
        t2_block = t2_by_index.get(i)
        final = final_label(_positive(t1_block, Tier.T1),
                            t2_block is not None and _positive(t2_block, Tier.T2))
        outcomes.append({"report_id": report.report_id, "final": final.value,
                         "t1": t1_block, "t2": t2_block})
    return outcomes


def check_gating_soundness(outcomes: Iterable[dict]) -> None:
    """Assert the production invariant: t2 present iff t1 combined positive."""
    for outcome in outcomes:
        has_t2 = outcome["t2"] is not None
        t1_positive = _positive(outcome["t1"], Tier.T1)
        if has_t2 != t1_positive:
            raise ValidationError(
                f"outcome {outcome['report_id']!r}: t2 "
                f"{'present' if has_t2 else 'absent'} with t1 "
                f"{'positive' if t1_positive else 'negative'}"
            )


# --- outcome file serialization ---------------------------------------------

def dumps_outcome(outcome: dict) -> str:
    """One outcomes file line, without its newline, for an outcome triage returned."""
    return dumps_line(outcome)


def _read_member(member: dict, task: Tier, where: str) -> bool:
    """Whether a member's label is positive. ValidationError, naming the field,
    unless backend_id is a string and label a label of task that agrees with
    probability >= threshold, probability in [0, 1] and threshold in (0, 1)."""
    read_field(member, "backend_id", str, where)
    label = read_field(member, "label", str, where)
    is_positive = task.parse_label(label, where, "label") is task.positive
    probability = read_field(member, "probability", float, where)
    if not 0.0 <= probability <= 1.0:
        raise ValidationError(f"{where}: field 'probability': not in [0, 1]")
    threshold = read_field(member, "threshold", float, where)
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"{where}: field 'threshold': not in (0, 1)")
    if is_positive is not decide(probability, threshold):
        raise ValidationError(f"{where}: field 'label': disagrees with probability >= threshold")
    return is_positive


def _read_block(block: dict, task: Tier, where: str) -> bool:
    """Whether a tier block is positive. ValidationError unless it holds exactly
    two members with distinct backend_ids, each valid for _read_member, a
    combined label that is the OR of theirs, which FN(combined) = FN(A) ∩ FN(B)
    needs, and combined_by "or"."""
    positive = _POSITIVE[task]
    members = block.get("members")
    if (type(members) is not list or len(members) != 2
            or type(members[0]) is not dict or type(members[1]) is not dict):
        read_field(block, "members", list, where)
        raise ValidationError(f"{where}: field 'members': needs exactly two member objects")
    any_positive = False
    for i, member in enumerate(members):
        # _read_member's checks, made inline for the common case; it names what fails
        backend_id = member.get("backend_id")
        label = member.get("label")
        probability = member.get("probability")
        threshold = member.get("threshold")
        is_positive = positive.get(label) if type(label) is str else None
        if (is_positive is None or type(backend_id) is not str or not backend_id.isascii()
                or type(probability) is not float or not 0.0 <= probability <= 1.0
                or type(threshold) is not float or not 0.0 < threshold < 1.0
                or is_positive is not (probability >= threshold)):
            is_positive = _read_member(member, task, f"{where}: members[{i}]")
        any_positive = any_positive or is_positive
    if members[0]["backend_id"] == members[1]["backend_id"]:
        raise ValidationError(f"{where}: field 'members': backend_ids are not distinct")
    combined = block.get("combined")
    is_positive = positive.get(combined) if type(combined) is str else None
    if is_positive is None:
        combined = read_field(block, "combined", str, where)
        is_positive = task.parse_label(combined, where, "combined") is task.positive
    if is_positive is not any_positive:
        raise ValidationError(f"{where}: field 'combined': not the OR of its members' labels")
    if block.get("combined_by") != "or":  # named, not echoed, like every field
        raise ValidationError(f"{where}: field 'combined_by': expected \"or\"")
    return is_positive


def _read_outcome(obj, where: str) -> tuple[str, dict]:
    """The report_id and outcome of one file line, validated."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: not a JSON object")
    report_id, final, t1, t2 = obj.get("report_id"), obj.get("final"), obj.get("t1"), obj.get("t2")
    # read_field's checks, made inline for the common case; it names what fails
    if not (type(report_id) is str and report_id.isascii() and type(final) is str
            and final.isascii() and type(t1) is dict and (t2 is None or type(t2) is dict)):
        report_id = read_field(obj, "report_id", str, where)
        final = read_field(obj, "final", str, where)
        t1 = read_field(obj, "t1", dict, where)
        t2 = read_field(obj, "t2", dict, where, None)
    t1_positive = _read_block(t1, Tier.T1, f"{where}: t1")
    t2_positive = None if t2 is None else _read_block(t2, Tier.T2, f"{where}: t2")
    expected = final_label(t1_positive, t2_positive)
    if final != expected:
        raise ValidationError(
            f"{where}: field 'final': expected {expected.value}, as its tier blocks give")
    return report_id, obj


def read_outcomes(path) -> dict[str, dict]:
    """Load an outcomes JSONL file keyed by report_id, validating every line.

    A line is UTF-8 JSON: an object with a string report_id no earlier line
    has, a t1 tier block, a t2 that is absent, null or a tier block (see
    _read_block), and the final label final_label gives for them. Gating is
    not checked: --t2-scope gold writes t2 blocks for t1-negative reports.
    """
    return read_json_lines(path, _read_outcome)


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
