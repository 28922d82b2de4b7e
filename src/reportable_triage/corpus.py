"""Data model and I/O for de-identified pathology report corpora.

A corpus file is UTF-8 JSON Lines, one record per line:

    {"report_id": "R1", "diagnosis_year": 2023, "source_site": "site_a",
     "raw_text": "...", "sections": [{"name": "diagnosis", "text": "...",
     "header": "DIAGNOSIS:\\n"}], "t1_label": "cancer", "t2_label": "reportable"}

``report_id``, ``diagnosis_year`` and ``raw_text`` are required; everything
else is optional.  ``header`` holds the raw header line of a parsed section so
persisted sections keep the lossless-partition property of the sectioner.
Unknown fields are rejected in strict mode and ignored with a warning
otherwise.

The module also ships a deterministic synthetic-corpus generator used for
desk-scale runs and tests: it plants class-indicative vocabulary in both the
synoptic and the diagnosis section, so both input pipelines receive signal.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Optional

from .errors import CorpusFormatError, ValidationError
from .util import (atomic_write_bytes, lone_surrogate, open_json, parse_json,
                   ratio_round_half_up)

logger = logging.getLogger(__name__)


class T1Label(str, Enum):
    """Tier-1 classes; cancer is the positive class."""

    CANCER = "cancer"
    NON_CANCER = "non_cancer"


class T2Label(str, Enum):
    """Tier-2 classes; reportable is the positive class."""

    REPORTABLE = "reportable"
    NON_REPORTABLE = "non_reportable"


class Tier(str, Enum):
    T1 = "t1"
    T2 = "t2"

    @property
    def label_type(self) -> type:
        return T1Label if self is Tier.T1 else T2Label

    @cached_property
    def positive(self) -> "T1Label | T2Label":
        """The one statement of which label is positive for each tier."""
        return T1Label.CANCER if self is Tier.T1 else T2Label.REPORTABLE

    @cached_property
    def negative(self) -> "T1Label | T2Label":
        return T1Label.NON_CANCER if self is Tier.T1 else T2Label.NON_REPORTABLE

    def parse_label(self, raw: str) -> "T1Label | T2Label":
        try:
            return self.label_type(raw)
        except ValueError:
            allowed = ", ".join(m.value for m in self.label_type)
            raise ValidationError(
                f"invalid {self.value} label {raw!r} (expected one of: {allowed})"
            ) from None


def is_normalized_section_name(name: str) -> bool:
    return bool(name) and name == name.lower() and not any(c.isspace() for c in name)


@dataclass(frozen=True)
class Section:
    """One named portion of a report.

    ``header`` is the raw header line exactly as it appeared (through the
    terminating colon / newline) and is empty for the preamble; concatenating
    ``header + text`` over a report's sections reproduces the raw text.
    """

    name: str
    text: str
    header: str = ""

    def __post_init__(self) -> None:
        if not is_normalized_section_name(self.name):
            raise ValidationError(
                f"section name {self.name!r} is not normalized "
                "(non-empty, lowercase, no whitespace)"
            )


@dataclass(frozen=True)
class PathologyReport:
    report_id: str
    diagnosis_year: int
    raw_text: str
    source_site: Optional[str] = None
    sections: tuple[Section, ...] = ()

    def __post_init__(self) -> None:
        if not self.report_id:
            raise ValidationError("report_id must be non-empty")


@dataclass(frozen=True)
class LabeledReport:
    """A report plus optional gold labels.

    Tier-2 gold labels exist only for cancer-positive reports, so a t2 label
    requires t1 == cancer.
    """

    report: PathologyReport
    t1_label: Optional[T1Label] = None
    t2_label: Optional[T2Label] = None

    def __post_init__(self) -> None:
        if self.t2_label is not None and self.t1_label is not T1Label.CANCER:
            raise ValidationError(
                f"record {self.report.report_id!r}: t2_label requires t1_label == cancer"
            )

    @property
    def report_id(self) -> str:
        return self.report.report_id

    def label_for(self, tier: Tier) -> "T1Label | T2Label | None":
        return self.t1_label if tier is Tier.T1 else self.t2_label


@dataclass
class Corpus:
    records: list[LabeledReport]
    # free-form notes a caller may attach; nothing in this package reads them
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        seen: dict[str, int] = {}
        for i, rec in enumerate(self.records):
            first = seen.setdefault(rec.report_id, i)
            if first != i:
                raise ValidationError(
                    f"duplicate report_id {rec.report_id!r} at records {first} and {i}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


# --- serialization ---------------------------------------------------------

_RECORD_FIELDS = (
    "report_id",
    "diagnosis_year",
    "source_site",
    "raw_text",
    "sections",
    "t1_label",
    "t2_label",
)
_SECTION_FIELDS = ("name", "text", "header")


def record_to_dict(rec: LabeledReport) -> dict:
    r = rec.report
    out: dict = {"report_id": r.report_id, "diagnosis_year": r.diagnosis_year}
    if r.source_site is not None:
        out["source_site"] = r.source_site
    out["raw_text"] = r.raw_text
    if r.sections:
        out["sections"] = [
            {"name": s.name, "text": s.text, **({"header": s.header} if s.header else {})}
            for s in r.sections
        ]
    if rec.t1_label is not None:
        out["t1_label"] = rec.t1_label.value
    if rec.t2_label is not None:
        out["t2_label"] = rec.t2_label.value
    return out


def _require(obj: dict, key: str, typ: type, where: str):
    if key not in obj:
        raise CorpusFormatError(f"{where}: field {key!r}: missing required field")
    value = obj[key]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise CorpusFormatError(
            f"{where}: field {key!r}: expected {typ.__name__}, got {type(value).__name__}"
        )
    if typ is str and not value.isascii():
        _check_encodable(value, key, where)
    return value


def _check_encodable(text: str, key: str, where: str) -> None:
    """Reject a lone surrogate (a \\ud800-style JSON escape): the record could
    be neither hashed nor written back as UTF-8. Callers skip ASCII text,
    which holds none, so a record of ASCII text pays no call."""
    at = lone_surrogate(text)
    if at >= 0:
        raise CorpusFormatError(
            f"{where}: field {key!r}: lone surrogate U+{ord(text[at]):04X} "
            "(not encodable as UTF-8)")


def record_from_dict(obj: dict, *, strict: bool = False, where: str = "record") -> LabeledReport:
    if not isinstance(obj, dict):
        raise CorpusFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = [k for k in obj if k not in _RECORD_FIELDS]
    if unknown:
        if strict:
            raise CorpusFormatError(f"{where}: field {unknown[0]!r}: unknown field")
        logger.warning("%s: ignoring unknown fields %s", where, unknown)

    report_id = _require(obj, "report_id", str, where)
    year = _require(obj, "diagnosis_year", int, where)
    raw_text = _require(obj, "raw_text", str, where)
    source_site = obj.get("source_site")
    if source_site is not None:
        if not isinstance(source_site, str):
            raise CorpusFormatError(f"{where}: field 'source_site': expected string")
        if not source_site.isascii():
            _check_encodable(source_site, "source_site", where)

    sections: list[Section] = []
    raw_sections = obj.get("sections")
    if raw_sections is not None:
        if not isinstance(raw_sections, list):
            raise CorpusFormatError(f"{where}: field 'sections': expected array")
        for j, s in enumerate(raw_sections):
            sub = f"{where}: sections[{j}]"
            if not isinstance(s, dict):
                raise CorpusFormatError(f"{sub}: expected object")
            bad = [k for k in s if k not in _SECTION_FIELDS]
            if bad:
                if strict:
                    raise CorpusFormatError(f"{sub}: field {bad[0]!r}: unknown field")
                logger.warning("%s: ignoring unknown fields %s", sub, bad)
            name = _require(s, "name", str, sub)
            text = _require(s, "text", str, sub)
            header = s.get("header", "")
            if not isinstance(header, str):
                raise CorpusFormatError(f"{sub}: field 'header': expected string")
            if not header.isascii():
                _check_encodable(header, "header", sub)
            try:
                sections.append(Section(name=name, text=text, header=header))
            except ValidationError as exc:
                raise CorpusFormatError(f"{sub}: {exc}") from None

    def parse_optional_label(key: str, tier: Tier):
        raw = obj.get(key)
        if raw is None:
            return None
        if not isinstance(raw, str):
            raise CorpusFormatError(f"{where}: field {key!r}: expected string")
        try:
            return tier.parse_label(raw)
        except ValidationError as exc:
            raise CorpusFormatError(f"{where}: field {key!r}: {exc}") from None

    t1 = parse_optional_label("t1_label", Tier.T1)
    t2 = parse_optional_label("t2_label", Tier.T2)
    try:
        report = PathologyReport(
            report_id=report_id,
            diagnosis_year=year,
            raw_text=raw_text,
            source_site=source_site,
            sections=tuple(sections),
        )
        return LabeledReport(report=report, t1_label=t1, t2_label=t2)
    except ValidationError as exc:
        raise CorpusFormatError(f"{where}: field 't2_label': {exc}") from None


def load_corpus(path: str | Path, *, strict: bool = False) -> Corpus:
    """Load a JSON Lines corpus file, preserving line order.

    Raises CorpusFormatError naming the offending line and field, for a line
    that is not UTF-8 or not JSON or a record that does not validate; a
    duplicate report_id names both line numbers.
    """
    path = Path(path)
    records: list[LabeledReport] = []
    seen: dict[str, int] = {}
    with open_json(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path.name}: line {lineno}"
            try:
                obj = parse_json(line)
            except ValidationError as exc:
                raise CorpusFormatError(f"{where}: {exc}") from None
            rec = record_from_dict(obj, strict=strict, where=where)
            if rec.report_id in seen:
                raise CorpusFormatError(
                    f"duplicate report_id {rec.report_id!r} on lines "
                    f"{seen[rec.report_id]} and {lineno}"
                )
            seen[rec.report_id] = lineno
            records.append(rec)
    return Corpus(records=records)


def dumps_record(rec: LabeledReport) -> str:
    return json.dumps(record_to_dict(rec), ensure_ascii=False, separators=(",", ":"))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus atomically; load_corpus(write_corpus(c)) == c record-for-record."""
    body = "".join(dumps_record(rec) + "\n" for rec in corpus.records)
    atomic_write_bytes(path, body.encode("utf-8"))


# --- synthetic corpus ------------------------------------------------------

CANCER_TERMS = (
    "carcinoma", "malignant", "invasive", "metastatic",
    "adenocarcinoma", "sarcoma", "lymphoma", "melanoma",
)
NON_CANCER_TERMS = (
    "benign", "unremarkable", "reactive", "inflammation",
    "cyst", "hyperplasia", "fibroadenoma", "polyp",
)
REPORTABLE_TERMS = (
    "primary", "staging", "resection", "infiltrating", "nodal",
)
NON_REPORTABLE_TERMS = (
    "recurrent", "previously", "treated", "surveillance", "followup",
)
_NEUTRAL_TERMS = (
    "specimen", "tissue", "received", "formalin", "fixed", "block",
    "slide", "left", "right", "margin", "fragment", "biopsy",
    "consistent", "with", "cm", "mm", "grade", "pattern",
)
_SITES = ("site_a", "site_b", "site_c")


@dataclass(frozen=True)
class SynthSpec:
    n_reports: int
    cancer_fraction: float = 0.21
    reportable_fraction_within_cancer: float = 0.8
    vocabulary_signal_strength: float = 1.0

    def __post_init__(self) -> None:
        if self.n_reports < 0:
            raise ValidationError("n_reports must be >= 0")
        for name in ("cancer_fraction", "reportable_fraction_within_cancer",
                     "vocabulary_signal_strength"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v}")


def _signal_tokens(rng: random.Random, own: tuple[str, ...], other: tuple[str, ...],
                   strength: float, k: int) -> list[str]:
    # With probability `strength` a slot carries an own-class term, otherwise
    # a coin-flip over both pools (pure noise), so strength 0 means no signal.
    out = []
    for _ in range(k):
        if rng.random() < strength:
            out.append(rng.choice(own))
        else:
            out.append(rng.choice(own + other))
    return out


def _filler(rng: random.Random, k: int) -> list[str]:
    return [rng.choice(_NEUTRAL_TERMS) for _ in range(k)]


def _synth_raw_text(rng: random.Random, t1: T1Label, t2: Optional[T2Label],
                    strength: float) -> str:
    if t1 is T1Label.CANCER:
        t1_own, t1_other = CANCER_TERMS, NON_CANCER_TERMS
    else:
        t1_own, t1_other = NON_CANCER_TERMS, CANCER_TERMS

    def body() -> str:
        words = _signal_tokens(rng, t1_own, t1_other, strength, 4)
        if t2 is not None:
            own = REPORTABLE_TERMS if t2 is T2Label.REPORTABLE else NON_REPORTABLE_TERMS
            other = NON_REPORTABLE_TERMS if t2 is T2Label.REPORTABLE else REPORTABLE_TERMS
            words += _signal_tokens(rng, own, other, strength, 4)
        words += _filler(rng, rng.randint(4, 10))
        rng.shuffle(words)
        return " ".join(words)

    size = f"{rng.randint(1, 9)}.{rng.randint(0, 9)} cm"
    parts = [
        "CLINICAL HISTORY:\n",
        " ".join(_filler(rng, rng.randint(3, 8))) + "\n",
        "SPECIMENS RECEIVED:\n",
        " ".join(_filler(rng, rng.randint(3, 6))) + f" {size}\n",
        "SYNOPTIC REPORT:\n",
        f"Tumour size: {size}\n" + body() + "\n",
        "DIAGNOSIS:\n",
        body() + "\n",
    ]
    return "".join(parts)


def synth_corpus(spec: SynthSpec, seed: int) -> Corpus:
    """Deterministically generate a labeled synthetic corpus.

    Class counts are realized by exact half-up rounding of the requested
    fractions (not Bernoulli draws), so equal (spec, seed) inputs always
    serialize byte-identically.
    """
    from .sectioner import default_synonym_table, parse_sections

    rng = random.Random(seed)
    n = spec.n_reports
    n_cancer = ratio_round_half_up(spec.cancer_fraction, n)
    n_reportable = ratio_round_half_up(spec.reportable_fraction_within_cancer, n_cancer)

    labels: list[tuple[T1Label, Optional[T2Label]]] = (
        [(T1Label.CANCER, T2Label.REPORTABLE)] * n_reportable
        + [(T1Label.CANCER, T2Label.NON_REPORTABLE)] * (n_cancer - n_reportable)
        + [(T1Label.NON_CANCER, None)] * (n - n_cancer)
    )
    rng.shuffle(labels)

    table = default_synonym_table()
    records: list[LabeledReport] = []
    for i, (t1, t2) in enumerate(labels):
        raw = _synth_raw_text(rng, t1, t2, spec.vocabulary_signal_strength)
        report = PathologyReport(
            report_id=f"SYN-{i:06d}",
            diagnosis_year=rng.choice((2022, 2023)),
            raw_text=raw,
            source_site=rng.choice(_SITES),
            sections=tuple(parse_sections(raw, table)),
        )
        records.append(LabeledReport(report=report, t1_label=t1, t2_label=t2))
    return Corpus(records=records)

