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

import logging
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Optional

from .errors import ValidationError
from .util import (
    atomic_write_bytes,
    dumps_line,
    lone_surrogate,
    ratio_round_half_up,
    read_field,
    read_json_lines,
)

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

    def parse_label(self, raw: str, where: str, key: str) -> "T1Label | T2Label":
        """The label raw names, or ValidationError("<where>: field '<key>':
        expected one of: ...") if it names none; like read_field, it does not
        echo raw."""
        try:
            return self.label_type(raw)
        except ValueError:
            allowed = ", ".join(m.value for m in self.label_type)
            raise ValidationError(f"{where}: field {key!r}: expected one of: {allowed}") from None


@lru_cache(maxsize=1024)  # a corpus names few sections, in every record
def is_normalized_section_name(name: str) -> bool:
    """Non-empty, lowercase and free of whitespace (as str.isspace defines it)."""
    return name.split() == [name] and name == name.lower()


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
_RECORD_KEYS = frozenset(_RECORD_FIELDS)
_SECTION_KEYS = frozenset(_SECTION_FIELDS)
# per label field, its tier and that tier's labels by value
_LABEL_FIELDS = tuple((f"{tier.value}_label", tier, {m.value: m for m in tier.label_type})
                      for tier in Tier)


def _unknown_fields(obj: dict, known: tuple[str, ...], strict: bool, where: str) -> None:
    """Reject (strict) or log the keys of obj that are not known fields."""
    unknown = [k for k in obj if k not in known]
    if unknown:
        if strict:
            raise ValidationError(f"{where}: field {unknown[0]!r}: unknown field")
        logger.warning("%s: ignoring unknown fields %s", where, unknown)


def _read_section(s, strict: bool, where: str) -> Section:
    """The section s holds; ValidationError names where and the field."""
    if not isinstance(s, dict):
        raise ValidationError(f"{where}: not a JSON object")
    _unknown_fields(s, _SECTION_FIELDS, strict, where)
    name = read_field(s, "name", str, where)
    text = read_field(s, "text", str, where)
    header = read_field(s, "header", str, where, "")
    try:
        return Section(name=name, text=text, header=header)
    except ValidationError:
        raise ValidationError(
            f"{where}: field 'name': not normalized (non-empty, lowercase, no whitespace)"
        ) from None


def record_from_dict(obj: dict, *, strict: bool = False, where: str = "record") -> LabeledReport:
    """The record obj holds; ValidationError names where and the field.

    Each check is made inline on the parsed values first, in the order the
    fields are named below; a value that fails is read again through
    read_field or _read_section, which raise the error that names it.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: not a JSON object")
    if not obj.keys() <= _RECORD_KEYS:
        _unknown_fields(obj, _RECORD_FIELDS, strict, where)
    get = obj.get
    report_id, year, raw_text, source_site = (
        get("report_id"), get("diagnosis_year"), get("raw_text"), get("source_site"))
    # read_field's checks, made inline for the common case; it names what fails
    if not (type(report_id) is str and (report_id.isascii() or lone_surrogate(report_id) < 0)
            and type(year) is int
            and type(raw_text) is str and (raw_text.isascii() or lone_surrogate(raw_text) < 0)
            and (source_site is None or type(source_site) is str
                 and (source_site.isascii() or lone_surrogate(source_site) < 0))):
        report_id = read_field(obj, "report_id", str, where)
        year = read_field(obj, "diagnosis_year", int, where)
        raw_text = read_field(obj, "raw_text", str, where)
        source_site = read_field(obj, "source_site", str, where, None)

    sections = get("sections")
    if sections is None:
        sections = ()
    elif type(sections) is not list:
        read_field(obj, "sections", list, where)  # raises, naming it
    else:
        parsed = []
        for j, s in enumerate(sections):
            # _read_section's checks, made inline for the common case; it names what fails
            if type(s) is dict and s.keys() <= _SECTION_KEYS:
                name, text, header = s.get("name"), s.get("text"), s.get("header", "")
                if (type(name) is str and (name.isascii() or lone_surrogate(name) < 0)
                        and type(text) is str and (text.isascii() or lone_surrogate(text) < 0)
                        and type(header) is str
                        and (header.isascii() or lone_surrogate(header) < 0)):
                    try:
                        parsed.append(Section(name, text, header))
                        continue
                    except ValidationError:  # a name that is not normalized
                        pass
            parsed.append(_read_section(s, strict, f"{where}: sections[{j}]"))
        sections = tuple(parsed)

    labels = []
    for key, tier, by_value in _LABEL_FIELDS:
        raw = get(key)
        label = by_value.get(raw) if type(raw) is str else None
        if label is None and raw is not None:
            raw = read_field(obj, key, str, where)
            label = tier.parse_label(raw, where, key)
        labels.append(label)
    try:
        report = PathologyReport(report_id, year, raw_text, source_site, sections)
    except ValidationError:  # the one rule PathologyReport checks
        raise ValidationError(f"{where}: field 'report_id': empty string") from None
    try:
        return LabeledReport(report, *labels)
    except ValidationError:  # the one rule LabeledReport checks
        raise ValidationError(f"{where}: field 't2_label': requires t1_label cancer") from None


def load_corpus(path: str | Path, *, strict: bool = False) -> Corpus:
    """Load a JSON Lines corpus file, preserving line order.

    Raises ValidationError naming the offending line and field, for a line
    that is not UTF-8 or not JSON or a record that does not validate; a
    duplicate report_id names both line numbers.
    """
    def read_line(obj, where: str) -> tuple[str, LabeledReport]:
        rec = record_from_dict(obj, strict=strict, where=where)
        return rec.report_id, rec

    return Corpus(records=list(read_json_lines(path, read_line).values()))


def dumps_record(rec: LabeledReport) -> str:
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
    return dumps_line(out)


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

