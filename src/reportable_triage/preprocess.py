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

from .corpus import PathologyReport, Section
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


def _leading_text(text: str, limit: int) -> tuple[str, int, bool]:
    """normalize_text of a prefix of text that holds more than limit tokens,
    if text has that many, normalizing no more of text than it takes; its
    token count; and whether it is all of text.

    text is normalized in pieces cut just before a whitespace character.
    lower()'s only context rule, the final sigma, does not look across
    whitespace, and split() drops it, so the pieces, joined by a space, give
    normalize_text of the whole text. A piece's tokens are counted by its
    spaces: it is never split again.
    """
    pieces: list[str] = []
    count = 0
    start = 0
    end = _CHARS_PER_TOKEN * (limit + 1)
    while end < len(text) and (cut := _SPACE.search(text, end)):
        piece = normalize_text(text[start:cut.start()])
        if piece:
            pieces.append(piece)
            count += piece.count(" ") + 1
            if count > limit:
                return " ".join(pieces), count, False
        start = cut.start()
        end = start + _CHARS_PER_TOKEN * (limit + 1 - count)
    piece = normalize_text(text[start:])
    if piece:
        pieces.append(piece)
        count += piece.count(" ") + 1
    return " ".join(pieces), count, True


DEFAULT_FALLBACK_SECTIONS = ("specimen",)


def _ordered_chunks(sections: Sequence[Section], names: Sequence[str]) -> list[Section]:
    """sections in assembly order: for each of names in turn, the first
    section of that name not yet taken (so the k-th request for a name takes
    its k-th section), then the rest in document order.

    Each taken section is popped from a copy of sections, so later names
    scan only what is left, and what is left at the end is the rest.
    """
    rest = list(sections)
    ordered = []
    for name in names:
        for i, section in enumerate(rest):
            if section.name == name:
                ordered.append(rest.pop(i))
                break
    ordered += rest
    return ordered


def assemble_input(
    report: PathologyReport,
    variant: PipelineVariant,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
    fallback_sections: Sequence[str] = DEFAULT_FALLBACK_SECTIONS,
    read: Optional[dict[str, tuple[str, int, bool]]] = None,
) -> NormalizedInput:
    """Build the exact text a backend scores for this report and variant.

    Assembly order: the variant's priority section, the other primary
    section, then fallback_sections, then every remaining section in
    document order; unsectioned reports fall back to the normalized raw
    text (recorded as pseudo-section "raw_text").

    read, when given, is shared by the calls for one report: it maps each
    section text read so far to its normalized prefix, that prefix's token
    count and whether it is all of the section. A later call reads a section again only when it needs more of
    it than is there, so assembling one report for several variants or
    budgets normalizes each section once. The result does not depend on it.
    """
    if token_budget <= 0:
        raise ValidationError("token_budget must be positive")
    if not report.sections and not report.raw_text:
        raise ValidationError(f"empty report {report.report_id!r}")

    if report.sections:
        chunks = _ordered_chunks(report.sections, (variant.priority_section,
                                                   variant.secondary_section, *fallback_sections))
    else:
        chunks = [Section(name="raw_text", text=report.raw_text)]

    kept: list[str] = []
    sections_used: list[str] = []
    remaining = token_budget
    truncated = False
    if read is None:
        read = {}
    for chunk in chunks:
        raw = chunk.text
        # a prefix serves when it is whole or already runs past the budget
        text, count, complete = read.get(raw, ("", 0, False))
        if not complete and count <= remaining:
            text, count, complete = read[raw] = _leading_text(raw, remaining)
        take = min(count, remaining)
        if take:
            kept.append(text if take == count else " ".join(text.split(" ", take)[:take]))
            sections_used.append(chunk.name)
            remaining -= take
        if count > take:
            # the budget ends inside this chunk, or before it when spent
            truncated = True
            break

    return NormalizedInput(
        text=" ".join(kept),
        approx_token_count=token_budget - remaining,
        truncated=truncated,
        sections_used=tuple(sections_used),
    )
