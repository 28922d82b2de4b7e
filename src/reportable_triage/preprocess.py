"""Input pipelines: normalization plus section prioritization and truncation.

Two complementary variants feed the classifier backends: variant A puts the
synoptic section first, variant B the diagnosis section. The remainder of the
report stays available as fallback, in the order: the other primary section,
then "specimen", then every remaining section in document order, and finally
the full normalized raw text when a report has no parsed sections at all.

Normalization lowercases, replaces unicode punctuation with spaces (so
"2cm." stays "2cm" and never fuses with a neighbour), collapses whitespace
runs, and trims. Digits are kept: tumour sizes and grades are class signal.
Token budgeting counts whitespace tokens; model-specific subword tokenizers
live behind the backend boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .corpus import PathologyReport
from .errors import ValidationError
from .util import is_punct

DEFAULT_TOKEN_BUDGET = 512


class PipelineVariant(str, Enum):
    A_SYNOPTIC_FIRST = "a_synoptic_first"
    B_DIAGNOSIS_FIRST = "b_diagnosis_first"

    @property
    def priority_section(self) -> str:
        return "synoptic" if self is PipelineVariant.A_SYNOPTIC_FIRST else "diagnosis"

    @property
    def secondary_section(self) -> str:
        return "diagnosis" if self is PipelineVariant.A_SYNOPTIC_FIRST else "synoptic"

    @classmethod
    def parse(cls, raw: str) -> "PipelineVariant":
        key = raw.strip().lower()
        aliases = {
            "a": cls.A_SYNOPTIC_FIRST,
            "a_synoptic_first": cls.A_SYNOPTIC_FIRST,
            "synoptic": cls.A_SYNOPTIC_FIRST,
            "b": cls.B_DIAGNOSIS_FIRST,
            "b_diagnosis_first": cls.B_DIAGNOSIS_FIRST,
            "diagnosis": cls.B_DIAGNOSIS_FIRST,
        }
        if key not in aliases:
            raise ValidationError(f"unknown pipeline variant {raw!r} (use 'a' or 'b')")
        return aliases[key]


@dataclass(frozen=True)
class NormalizedInput:
    text: str
    approx_token_count: int
    truncated: bool
    sections_used: tuple[str, ...]


class _PunctToSpace(dict):
    """A str.translate table: punctuation to a space, any other code point to
    itself. It fills itself in as code points are first seen."""

    def __missing__(self, codepoint: int) -> int:
        value = 0x20 if is_punct(chr(codepoint)) else codepoint
        self[codepoint] = value
        return value


_PUNCT_TO_SPACE = _PunctToSpace()


def normalize_text(text: str) -> str:
    """Lowercase, punctuation to single spaces, whitespace collapsed, trimmed."""
    # lower() the whole string, never per character: a final sigma lowercases
    # by its context ("ΟΔΟΣ" -> "οδος")
    return " ".join(text.lower().translate(_PUNCT_TO_SPACE).split())


_SPACE = re.compile(r"\s")  # the characters str.isspace() and str.split() take as whitespace
_CHARS_PER_TOKEN = 8  # a first guess of how long a piece to normalize


def _leading_tokens(text: str, limit: int) -> tuple[list[str], bool]:
    """The first tokens of normalize_text(text), more than limit of them if
    it has that many, normalizing no more of text than it takes, and whether
    they are all of its tokens.

    text is normalized in pieces cut just before a whitespace character.
    lower()'s only context rule, the final sigma, does not look across
    whitespace, and split() drops it, so the pieces give the tokens of the
    whole text.
    """
    tokens: list[str] = []
    start = 0
    end = _CHARS_PER_TOKEN * (limit + 1)
    while end < len(text) and (cut := _SPACE.search(text, end)):
        tokens += normalize_text(text[start:cut.start()]).split()
        if len(tokens) > limit:
            return tokens, False
        start = cut.start()
        end = start + _CHARS_PER_TOKEN * (limit + 1 - len(tokens))
    return tokens + normalize_text(text[start:]).split(), True


DEFAULT_FALLBACK_SECTIONS = ("specimen",)


def _ordered_chunks(
    report: PathologyReport,
    variant: PipelineVariant,
    fallback_sections: Sequence[str],
) -> list[tuple[str, str]]:
    """(section name, raw body) pairs in assembly priority order."""
    sections = report.sections
    primary_names = (variant.priority_section, variant.secondary_section,
                     *fallback_sections)
    used_indices: set[int] = set()
    chunks: list[tuple[str, str]] = []
    for name in primary_names:
        for i, section in enumerate(sections):
            if section.name == name and i not in used_indices:
                used_indices.add(i)
                chunks.append((section.name, section.text))
                break
    for i, section in enumerate(sections):
        if i not in used_indices:
            chunks.append((section.name, section.text))
    return chunks


def assemble_input(
    report: PathologyReport,
    variant: PipelineVariant,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    fallback_sections: Sequence[str] = DEFAULT_FALLBACK_SECTIONS,
    read: Optional[dict[str, tuple[list[str], bool]]] = None,
) -> NormalizedInput:
    """Build the exact text a backend scores for this report and variant.

    Assembly order: the variant's priority section, the other primary
    section, then fallback_sections, then every remaining section in
    document order; unsectioned reports fall back to the normalized raw
    text (recorded as pseudo-section "raw_text").

    read, when given, is shared by the calls for one report: it maps each
    section text read so far to its leading tokens and whether they are all
    of them. A later call reads a section again only when it needs more of
    it than is there, so assembling one report for several variants or
    budgets normalizes each section once. The result does not depend on it.
    """
    if token_budget <= 0:
        raise ValidationError("token_budget must be positive")
    if not report.sections and not report.raw_text:
        raise ValidationError(f"empty report {report.report_id!r}")

    if report.sections:
        chunks = _ordered_chunks(report, variant, fallback_sections)
    else:
        chunks = [("raw_text", report.raw_text)]

    kept: list[str] = []
    sections_used: list[str] = []
    remaining = token_budget
    truncated = False
    if read is None:
        read = {}
    for name, raw in chunks:
        # a prefix serves when it is whole or already runs past the budget
        tokens, complete = read.get(raw, ((), False))
        if not complete and len(tokens) <= remaining:
            tokens, complete = read[raw] = _leading_tokens(raw, remaining)
        take = tokens[:remaining]
        if take:
            kept.extend(take)
            sections_used.append(name)
            remaining -= len(take)
        if len(tokens) > len(take):
            # the budget ends inside this chunk, or before it when spent
            truncated = True
            break

    return NormalizedInput(
        text=" ".join(kept),
        approx_token_count=len(kept),
        truncated=truncated,
        sections_used=tuple(sections_used),
    )
