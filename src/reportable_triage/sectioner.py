"""Split raw report text into named sections.

Reports vary in structure across hospitals and years, so parsing is a
heuristic in two parts:

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
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional

from .corpus import PathologyReport, Section, is_normalized_section_name
from .errors import ValidationError
from .util import is_punct, lone_surrogate

PREAMBLE = "preamble"
OTHER = "other"

_HEADER_PREFIX_RE = re.compile(r"[ \t]*([^:\n\r]*):")
_ALLOWED_CONTENT_RE = re.compile(r"[A-Za-z0-9 &,/\-]+")


HEADER_MAX_LENGTH = 48
HEADER_MIN_UPPER_RATIO = 0.8


# ASCII bytes that are not letters, and that are not uppercase letters: once
# _ALLOWED_CONTENT_RE matches, header content is ASCII, so deleting these
# from its bytes counts its letters and uppercase letters in C
_NOT_LETTER = bytes(c for c in range(128) if not chr(c).isalpha())
_NOT_UPPER = bytes(c for c in range(128) if not chr(c).isupper())


def header_end(line: str) -> Optional[int]:
    """The offset just past line's header colon, or None if line is no header.

    parse_sections calls it only for lines that hold a colon, which the
    header pattern needs."""
    m = _HEADER_PREFIX_RE.match(line)
    if m is None:
        return None
    content = m.group(1).strip()
    if not 1 <= len(content) <= HEADER_MAX_LENGTH:
        return None
    if _ALLOWED_CONTENT_RE.fullmatch(content) is None:
        return None
    raw = content.encode("ascii")
    letters = len(raw.translate(None, _NOT_LETTER))
    if not letters:
        return None
    if len(raw.translate(None, _NOT_UPPER)) / letters < HEADER_MIN_UPPER_RATIO:
        return None
    return m.end()


@lru_cache(maxsize=1024)  # a corpus spells its headers a few ways, in every report
def normalize_header_key(raw: str) -> str:
    """Lookup key for a raw header: lowercase, punctuation removed, spaces collapsed."""
    stripped = "".join(c for c in raw.lower() if not is_punct(c))
    return " ".join(stripped.split())


class SectionSynonymTable:
    """Maps raw header variants to normalized section names."""

    def __init__(self, entries: dict[str, str], where: Optional[dict[str, str]] = None):
        """where, if given, names the place of raw headers' entries (such as
        'line N') for error messages. No message echoes an entry: one read
        from a file may be of any length."""
        self._map: dict[str, str] = {}
        where = where or {}
        for raw, name in entries.items():
            if not is_normalized_section_name(name):
                raise ValidationError(f"{where.get(raw, 'synonym table')}: the section "
                                      f"name is not normalized (lowercase, one word)")
            key = normalize_header_key(raw)
            if not key:
                raise ValidationError(
                    f"{where.get(raw, 'synonym table')}: the raw header normalizes to nothing")
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
    where: dict[str, str] = {}
    try:
        data = Path(path).read_bytes()
    except FileNotFoundError:
        raise ValidationError(f"section synonyms file not found: {path}") from None
    except IsADirectoryError:
        raise ValidationError(f"section synonyms path is a directory: {path}") from None
    for lineno, line in enumerate(data.decode("utf-8-sig", "surrogateescape").splitlines(), 1):
        at = lone_surrogate(line)
        if at >= 0:  # a byte that is not UTF-8
            raise ValidationError(
                f"{path}: line {lineno}: not UTF-8: byte 0x{ord(line[at]) - 0xDC00:02x}")
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(
                f"{path}: line {lineno}: expected 'raw header = normalized name'"
            )
        raw, name = (part.strip() for part in stripped.split("=", 1))
        entries[raw] = name
        where[raw] = f"line {lineno}"
    try:
        return SectionSynonymTable(entries, where)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def parse_sections(raw_text: str, table: Optional[SectionSynonymTable] = None) -> list[Section]:
    if table is None:
        table = default_synonym_table()
    # (name, header line, body lines) of each section in turn, the preamble first
    body: list[str] = []
    parts = [(PREAMBLE, "", body)]
    for line in raw_text.splitlines(keepends=True):
        cut = header_end(line) if ":" in line else None
        if cut is None:
            body.append(line)
            continue
        rest = line[cut:]
        if rest.strip():
            # same-line body content after the colon stays in the section text
            header, body = line[:cut], [rest]
        else:
            header, body = line, []
        # header content without the colon; normalized names are never empty
        parts.append((table.lookup(line[:cut - 1]) or OTHER, header, body))
    # a header section always has its header line; the preamble is kept if it has text
    return [Section(name=name, text="".join(body), header=header)
            for name, header, body in parts if header or body]


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
