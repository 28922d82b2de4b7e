import random
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from reportable_triage.corpus import PathologyReport
from reportable_triage.errors import ValidationError
from reportable_triage.sectioner import (
    _DEFAULT_ENTRIES,
    SectionSynonymTable,
    default_synonym_table,
    ensure_sections,
    header_end,
    load_synonym_table,
    normalize_header_key,
    parse_sections,
    reassemble,
)

from oracles import reference_header_end, reference_parse_sections

TABLE = default_synonym_table()


def names(sections):
    return [s.name for s in sections]


def test_empty_input():
    assert parse_sections("", TABLE) == []


def test_synonym_normalization():
    sections = parse_sections("FINAL DIAGNOSIS:\ninvasive carcinoma", TABLE)
    assert names(sections) == ["diagnosis"]
    assert sections[0].text == "invasive carcinoma"
    assert sections[0].header == "FINAL DIAGNOSIS:\n"


def test_three_section_document_lossless():
    raw = "clinical note text\nSYNOPTIC REPORT:\nTumour size: 2 cm\nDIAGNOSIS:\nbenign"
    sections = parse_sections(raw, TABLE)
    assert names(sections) == ["preamble", "synoptic", "diagnosis"]
    assert reassemble(sections) == raw
    # the checklist line stays inside the synoptic body (uppercase rule)
    assert "Tumour size: 2 cm" in sections[1].text


def test_unknown_header_becomes_other_with_raw_header():
    sections = parse_sections("MICROSCOPIC EXAM:\ncells\n", TABLE)
    assert names(sections) == ["other"]
    assert sections[0].header == "MICROSCOPIC EXAM:\n"


def test_same_line_body_content_preserved():
    raw = "DIAGNOSIS: benign nevus\n"
    sections = parse_sections(raw, TABLE)
    assert names(sections) == ["diagnosis"]
    assert sections[0].header == "DIAGNOSIS:"
    assert sections[0].text == " benign nevus\n"
    assert reassemble(sections) == raw


def test_no_headers_degrades_to_preamble():
    raw = "free text only\nwith two lines"
    sections = parse_sections(raw, TABLE)
    assert names(sections) == ["preamble"]
    assert reassemble(sections) == raw


def test_header_at_eof_no_body():
    sections = parse_sections("DIAGNOSIS:", TABLE)
    assert names(sections) == ["diagnosis"]
    assert sections[0].text == ""


def test_prose_with_colon_is_not_header():
    # lowercase letters fail the 80% uppercase requirement
    raw = "the findings are as follows: benign\n"
    assert names(parse_sections(raw, TABLE)) == ["preamble"]


def test_disallowed_characters_reject_header():
    raw = "SPECIMEN(S) RECEIVED:\nskin\n"  # parens not in the allowed class
    assert names(parse_sections(raw, TABLE)) == ["preamble"]
    # the paren-free variant is a header and maps through the synonym table
    sections = parse_sections("SPECIMENS RECEIVED:\nskin\n", TABLE)
    assert names(sections) == ["specimen"]


def test_header_length_boundary():
    ok = "A" * 48 + ":\nbody\n"
    too_long = "A" * 49 + ":\nbody\n"
    assert names(parse_sections(ok, TABLE)) == ["other"]
    assert names(parse_sections(too_long, TABLE)) == ["preamble"]


def test_uppercase_ratio_boundary():
    # 4/5 letters uppercase passes at the 0.8 threshold, 3/5 fails
    assert names(parse_sections("ABCDe:\n", TABLE)) == ["other"]
    assert names(parse_sections("ABcde:\n", TABLE)) == ["preamble"]


def test_digits_only_header_content_rejected():
    assert names(parse_sections("123:\n", TABLE)) == ["preamble"]


def test_duplicate_known_headers_kept_separate():
    raw = "DIAGNOSIS:\nfirst\nDIAGNOSIS:\nsecond\n"
    sections = parse_sections(raw, TABLE)
    assert names(sections) == ["diagnosis", "diagnosis"]
    assert sections[0].text == "first\n"
    assert sections[1].text == "second\n"


def test_leading_whitespace_header():
    raw = "   DIAGNOSIS:\nbody\n"
    sections = parse_sections(raw, TABLE)
    assert names(sections) == ["diagnosis"]
    assert reassemble(sections) == raw


def test_crlf_lines_lossless():
    raw = "preface\r\nDIAGNOSIS:\r\nbenign\r\n"
    sections = parse_sections(raw, TABLE)
    assert names(sections) == ["preamble", "diagnosis"]
    assert reassemble(sections) == raw


def test_idempotent_reparse():
    raw = "intro\nSYNOPTIC:\na\nWEIRD HEADER:\nb\n"
    first = parse_sections(raw, TABLE)
    again = parse_sections(reassemble(first), TABLE)
    assert first == again


def test_synonym_table_from_file(tmp_path):
    cfg = tmp_path / "sections.cfg"
    cfg.write_text(
        "# local additions\nMICROSCOPIC EXAM = other\nADDENDUM REPORT = diagnosis\n",
        encoding="utf-8",
    )
    table = load_synonym_table(cfg)
    assert table.lookup("Microscopic Exam") == "other"
    assert table.lookup("ADDENDUM REPORT") == "diagnosis"
    assert table.lookup("final diagnosis") == "diagnosis"  # defaults kept


def test_synonym_table_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "sections.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfCAP CANCER SUMMARY = synoptic\n\xff = other\n")
    # the mark is skipped, not read into the first header; a bad byte is still named
    with pytest.raises(ValidationError, match="line 2: not UTF-8: byte 0xff"):
        load_synonym_table(cfg)
    cfg.write_bytes(b"\xef\xbb\xbfCAP CANCER SUMMARY = synoptic\n")
    assert load_synonym_table(cfg).lookup("CAP CANCER SUMMARY") == "synoptic"


def test_synonym_table_validates_values():
    with pytest.raises(ValidationError):
        SectionSynonymTable({"x": "Not Normalized", "synoptic": "synoptic",
                             "diagnosis": "diagnosis", "specimen": "specimen"})
    with pytest.raises(ValidationError, match="synoptic"):
        SectionSynonymTable({"diagnosis": "diagnosis", "specimen": "specimen"})


def test_normalize_header_key_strips_punctuation():
    assert normalize_header_key("Specimen(s) Received") == "specimens received"
    assert normalize_header_key("  FINAL   DIAGNOSIS  ") == "final diagnosis"


def test_ensure_sections_parses_raw_only_reports():
    raw = "DIAGNOSIS:\nbenign\n"
    bare = PathologyReport(report_id="R", diagnosis_year=2023, raw_text=raw)
    parsed = ensure_sections(bare, TABLE)
    assert [s.name for s in parsed.sections] == ["diagnosis"]
    # already-sectioned and empty reports pass through untouched
    assert ensure_sections(parsed, TABLE) is parsed
    empty = PathologyReport(report_id="E", diagnosis_year=2023, raw_text="")
    assert ensure_sections(empty, TABLE) is empty


FUZZ_ALPHABET = (
    string.ascii_letters + string.digits + " :\n\t&,/-().;"
    + "\r" + "éµΩ"  # a little non-ASCII
)


def fuzz_doc(rng: random.Random) -> str:
    n = rng.randrange(0, 400)
    return "".join(rng.choice(FUZZ_ALPHABET) for _ in range(n))


def test_fuzz_lossless_partition_and_idempotence():
    rng = random.Random(20240817)
    for _ in range(1000):
        raw = fuzz_doc(rng)
        sections = parse_sections(raw, TABLE)
        assert reassemble(sections) == raw
        assert parse_sections(raw, TABLE) == sections
        for s in sections:
            assert s.name and s.name == s.name.lower()


# header-like pieces, separators that str.splitlines takes as line ends but
# the header pattern does not (\x0b, \x85, \u2028), and uppercase letters
# outside ASCII, which the allowed-content rule rejects
_HEADER_PIECES = st.sampled_from([
    "DIAGNOSIS", "Final Diagnosis", "SPECIMEN(S)", "A & B/C-D", "ÉTAT", "ΣΥΝ", "İX", "12",
    ":", " ", "\t", "\n", "\r\n", "\r", "\x0b", "\x85", "\u2028", "x", "AB", "é", "ß",
])


@given(st.lists(_HEADER_PIECES, max_size=12).map("".join))
@example("\x0bDIAGNOSIS:\n")
@example("DIAG\x85NOSIS: x")
@example("ÉTAT:\n")
@example("ABCD e:\n")  # 4 of 5 letters uppercase: exactly the ratio
@example("ABC de:\n")
@settings(max_examples=400, derandomize=True, deadline=None)
def test_header_scan_agrees_with_reference_line_by_line(text):
    for line in (text, *text.splitlines(keepends=True)):
        assert header_end(line) == reference_header_end(line)
        assert (header_end(line) if ":" in line else None) == reference_header_end(line)


# a table whose headers also map to the names parse_sections gives text
# before the first header and headers it does not know
_EDGE_ENTRIES = {**_DEFAULT_ENTRIES, "PREFACE": "preamble", "NOTES": "other",
                 "CLINICAL HISTORY": "history"}
# whole lines: headers of both tables, spelled several ways, checklist lines
# the uppercase test rejects, same-line bodies, and line ends of every kind
_REPORT_LINES = st.sampled_from([
    "FINAL DIAGNOSIS:", "Final Diagnosis:", "SYNOPTIC REPORT:", "SPECIMEN(S) RECEIVED:",
    "GROSS DESCRIPTION:", "PREFACE:", "NOTES:", "CLINICAL HISTORY:", "MICROSCOPIC:",
    "  DIAGNOSIS :", "DIAGNOSIS: invasive carcinoma", "SYNOPTIC: pT2 N0", "NOTES:   ",
    "Tumour size: 2 cm", "Margins: clear", "benign skin", "", " ", "carcinoma, grade 2",
    "12: x", "A & B/C-D:", "ÉTAT:",
])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "", "\x0b", "\u2028"])


@given(st.lists(st.tuples(_REPORT_LINES, _LINE_ENDS), max_size=16),
       st.sampled_from(["default", "edge"]))
@example([], "default")
@example([("", "\n")], "default")
@example([("PREFACE:", "\n"), ("text", "")], "edge")
@example([("NOTES: x", "\r\n")], "edge")
@settings(max_examples=600, derandomize=True, deadline=None)
def test_parse_sections_equals_reference(lines, table):
    raw = "".join(line + end for line, end in lines)
    entries = _DEFAULT_ENTRIES if table == "default" else _EDGE_ENTRIES
    expected = reference_parse_sections(raw, entries)
    assert parse_sections(raw, SectionSynonymTable(entries)) == expected
    if table == "default":
        assert parse_sections(raw) == expected
