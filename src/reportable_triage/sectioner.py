"""Split raw report text into named sections.

Reports vary in structure across hospitals and years, so parsing is a
heuristic with two tuning points:

* the header rule: a line is a header when its content before the first
  colon, once trimmed, is 1..48 characters drawn from letters, digits,
  spaces and ``& , / -``, and at least 80% of its letters are uppercase in
  the original text (checklist lines like "Tumour size: 2 cm" fail the
  uppercase test and stay inside the enclosing section body);
* the synonym table: maps raw header variants (case-insensitive,
  punctuation-stripped) onto normalized section names.

Parsing is total: any input yields a well-formed section list, degrading to
a single "preamble" section. The partition is lossless: concatenating each
section's header line and body, in order, reproduces the input exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional

from .corpus import PathologyReport, Section, is_normalized_section_name
from .errors import ValidationError
from .util import is_punct

PREAMBLE = "preamble"
OTHER = "other"

_HEADER_PREFIX_RE = re.compile(r"[ \t]*([^:\n\r]*):")
_ALLOWED_CONTENT_RE = re.compile(r"[A-Za-z0-9 &,/\-]+")


@dataclass(frozen=True)
class HeaderRule:
    max_length: int = 48
    min_upper_ratio: float = 0.8

    def matches(self, line: str) -> Optional[int]:
        """Return the offset just past the header colon, or None."""
        if ":" not in line:  # the header pattern needs a colon; most lines have none
            return None
        m = _HEADER_PREFIX_RE.match(line)
        if m is None:
            return None
        content = m.group(1).strip()
        if not 1 <= len(content) <= self.max_length:
            return None
        if _ALLOWED_CONTENT_RE.fullmatch(content) is None:
            return None
        letters = [c for c in content if c.isalpha()]
        if not letters:
            return None
        upper = sum(1 for c in letters if c.isupper())
        if upper / len(letters) < self.min_upper_ratio:
            return None
        return m.end()


DEFAULT_HEADER_RULE = HeaderRule()


def normalize_header_key(raw: str) -> str:
    """Lookup key for a raw header: lowercase, punctuation removed, spaces collapsed."""
    stripped = "".join(c for c in raw.lower() if not is_punct(c))
    return " ".join(stripped.split())


class SectionSynonymTable:
    """Maps raw header variants to normalized section names."""

    def __init__(self, entries: dict[str, str]):
        self._map: dict[str, str] = {}
        for raw, name in entries.items():
            if not is_normalized_section_name(name):
                raise ValidationError(
                    f"synonym table value {name!r} is not a normalized section name"
                )
            key = normalize_header_key(raw)
            if not key:
                raise ValidationError(f"synonym table key {raw!r} normalizes to nothing")
            self._map[key] = name
        for required in ("synoptic", "diagnosis", "specimen"):
            if required not in self._map.values():
                raise ValidationError(f"synonym table lacks a mapping to {required!r}")

    def lookup(self, raw_header: str) -> Optional[str]:
        return self._map.get(normalize_header_key(raw_header))


_DEFAULT_ENTRIES = {
    "diagnosis": "diagnosis",
    "final diagnosis": "diagnosis",
    "pathologic diagnosis": "diagnosis",
    "synoptic": "synoptic",
    "synoptic report": "synoptic",
    "synoptic data": "synoptic",
    "specimen": "specimen",
    "specimen(s) received": "specimen",
    "specimens received": "specimen",
    "gross description": "specimen",
}


def default_synonym_table() -> SectionSynonymTable:
    return SectionSynonymTable(_DEFAULT_ENTRIES)


def load_synonym_table(path: str | Path) -> SectionSynonymTable:
    """Read 'raw header = normalized name' lines; '#' starts a comment."""
    entries = dict(_DEFAULT_ENTRIES)
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(
                f"{path}: line {lineno}: expected 'raw header = normalized name'"
            )
        raw, name = (part.strip() for part in stripped.split("=", 1))
        entries[raw] = name
    return SectionSynonymTable(entries)


def parse_sections(
    raw_text: str,
    table: Optional[SectionSynonymTable] = None,
    rule: HeaderRule = DEFAULT_HEADER_RULE,
) -> list[Section]:
    if table is None:
        table = default_synonym_table()
    if raw_text == "":
        return []

    sections: list[Section] = []
    # (name, header_slice, body_parts)
    current_name = PREAMBLE
    current_header = ""
    body_parts: list[str] = []

    def flush() -> None:
        if current_name == PREAMBLE and not current_header and not body_parts:
            return
        sections.append(
            Section(name=current_name, text="".join(body_parts), header=current_header)
        )

    for line in raw_text.splitlines(keepends=True):
        cut = rule.matches(line)
        if cut is None:
            body_parts.append(line)
            continue
        flush()
        rest = line[cut:]
        if rest.strip():
            # same-line body content after the colon stays in the section text
            header_slice, body_parts = line[:cut], [rest]
        else:
            header_slice, body_parts = line, []
        name = table.lookup(line[:cut - 1])  # header content without the colon
        current_name = name if name is not None else OTHER
        current_header = header_slice
    flush()
    return sections


def reassemble(sections: Iterable[Section]) -> str:
    """Inverse of parse_sections: header lines and bodies, in order."""
    return "".join(s.header + s.text for s in sections)


def ensure_sections(
    report: PathologyReport,
    table: Optional[SectionSynonymTable] = None,
) -> PathologyReport:
    """Parse the report's raw text if it arrived without sections."""
    if report.sections or not report.raw_text:
        return report
    return replace(report, sections=tuple(parse_sections(report.raw_text, table)))
