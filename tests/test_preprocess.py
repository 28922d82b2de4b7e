import pytest
from hypothesis import example, given, settings, strategies as st

from reportable_triage.corpus import PathologyReport, Section
from reportable_triage.errors import ValidationError
from reportable_triage.preprocess import (
    NormalizedInput,
    PipelineVariant,
    assemble_input,
    normalize_text,
)

from reportable_triage import preprocess

from oracles import reference_assemble, reference_normalize_text, reference_ordered_chunks

A = PipelineVariant.A_SYNOPTIC_FIRST
B = PipelineVariant.B_DIAGNOSIS_FIRST


def report_with(sections, raw_text="raw"):
    return PathologyReport(report_id="R", diagnosis_year=2023, raw_text=raw_text,
                           sections=tuple(sections))


def test_normalize_hand_derived_example():
    assert normalize_text("Invasive CARCINOMA, Grade 2.") == "invasive carcinoma grade 2"


def test_normalize_empty():
    assert normalize_text("") == ""


def test_normalize_collapses_whitespace():
    assert normalize_text("a  b") == "a b"
    assert normalize_text("  a\t\nb  ") == "a b"


def test_normalize_punctuation_becomes_space_not_deleted():
    assert normalize_text("2cm.margin") == "2cm margin"
    assert normalize_text("grade-2") == "grade 2"


def test_normalize_keeps_digits_and_symbols():
    assert normalize_text("Size 2 cm +3") == "size 2 cm +3"


@given(st.text(max_size=200))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@given(st.text(max_size=200))
def test_normalize_invariants(text):
    out = normalize_text(text)
    assert out == out.lower()
    assert "  " not in out
    assert out == out.strip()


@given(st.text(max_size=300))
def test_normalize_equals_per_character_reference(text):
    assert normalize_text(text) == reference_normalize_text(text)


def test_normalize_lowercases_in_context():
    # a final capital sigma lowercases to a final sigma only in context
    assert normalize_text("ΟΔΟΣ.") == reference_normalize_text("ΟΔΟΣ.") == "οδος"
    # one capital letter lowercases to two code points
    assert normalize_text("İstanbul") == reference_normalize_text("İstanbul") == "i\u0307stanbul"


def budget_spent_report(after):
    return report_with([Section(name="synoptic", text="Carcinoma, grade 2."),
                        Section(name="diagnosis", text=after)])


def test_punctuation_only_chunk_after_spent_budget_does_not_truncate():
    out = assemble_input(budget_spent_report(" -- ; ... !? "), A, token_budget=3)
    assert out == NormalizedInput(text="carcinoma grade 2", approx_token_count=3,
                                  truncated=False, sections_used=("synoptic",))


def test_chunk_with_a_token_after_spent_budget_truncates():
    out = assemble_input(budget_spent_report("... Benign."), A, token_budget=3)
    assert out == NormalizedInput(text="carcinoma grade 2", approx_token_count=3,
                                  truncated=True, sections_used=("synoptic",))


@given(st.text(max_size=100))
def test_truncation_after_spent_budget_follows_the_reference(after):
    out = assemble_input(budget_spent_report(after), A, token_budget=3)
    assert out.truncated == bool(reference_normalize_text(after).split())


# text at which a prefix cut could go wrong: final sigma, a combining mark
# (a case-ignorable one), punctuation, whitespace beyond the ASCII space, and
# long runs with no whitespace to cut at
CUT_CHARS = st.sampled_from(list("aZ2 Σσς\u0301'.,-İ\t\n\x1c\x1d\x1e\x1f\xa0\u2028\u3000")
                            + ["Σ.b", "a" * 20])
CHUNK_TEXT = st.lists(CUT_CHARS | st.characters(blacklist_categories=("Cs",)),
                      max_size=120).map("".join)


@given(texts=st.lists(CHUNK_TEXT, min_size=1, max_size=3),
       budget=st.integers(min_value=1, max_value=12))
# a piece is cut at the first whitespace 8 characters per missing token on:
# after "x", a piece of the second chunk ends at the first whitespace from
# index 16 on
@example(texts=["x", "a" * 15 + "Σ b c"], budget=2)
@example(texts=["x", "A" * 16 + "\u2028Σ b"], budget=2)
@example(texts=["x", "a" * 15 + ". b c"], budget=2)
@example(texts=["x", "a" * 15 + "Σ.b c"], budget=2)
@example(texts=["x", "abcdefghijklmnopqrstuvwxyz b"], budget=2)
@example(texts=["x", "a\x1cb\x1dc\x1ed\x1fe\xa0f\u2028g " * 3], budget=2)
@example(texts=["ΟΔΟΣ " * 40, "Σ."], budget=12)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_assembly_equals_full_normalization_of_each_chunk(texts, budget):
    names = ("synoptic", "diagnosis", "specimen")[:len(texts)]
    report = report_with([Section(name=n, text=t) for n, t in zip(names, texts)])
    out = assemble_input(report, A, token_budget=budget)
    expected = reference_assemble(list(zip(names, texts)), budget)
    assert (out.text, out.approx_token_count, out.truncated, out.sections_used) == expected


SECTION_NAMES = st.sampled_from(["synoptic", "diagnosis", "specimen", "margins", "other"])
ASSEMBLY_KEYS = st.lists(
    st.tuples(st.sampled_from([A, B]), st.integers(min_value=1, max_value=40),
              st.lists(SECTION_NAMES, max_size=2).map(tuple)),
    min_size=1, max_size=4)


@given(sections=st.lists(st.builds(Section, name=SECTION_NAMES, text=st.text(max_size=3)),
                         max_size=6),
       names=st.lists(SECTION_NAMES, max_size=6))
@example(sections=[Section(name="synoptic", text="1"), Section(name="diagnosis", text="2"),
                   Section(name="synoptic", text="3"), Section(name="synoptic", text="4")],
         names=["synoptic", "diagnosis", "synoptic"])
@settings(max_examples=300, derandomize=True, deadline=None)
def test_section_order_equals_reference_with_repeated_names(sections, names):
    # a name requested k times takes the first k sections of that name
    ordered = preprocess._ordered_chunks(sections, names)
    assert [(s.name, s.text) for s in ordered] == reference_ordered_chunks(sections, names)


def test_fallback_repeating_a_primary_name_takes_its_next_section():
    report = report_with([Section(name="other", text="o"), Section(name="synoptic", text="s1"),
                          Section(name="diagnosis", text="d"),
                          Section(name="synoptic", text="s2")])
    out = assemble_input(report, B, fallback_sections=("synoptic", "other"))
    assert out.text == "d s1 s2 o"
    assert out.sections_used == ("diagnosis", "synoptic", "synoptic", "other")


@st.composite
def shared_read_reports(draw):
    """A report with 0-4 sections whose texts come from a small pool, so that
    texts repeat; the pool holds empty, budget-crossing and piece-cut texts."""
    pool = draw(st.lists(CHUNK_TEXT | st.just("") | st.just("Carcinoma, grade 2. " * 30),
                         min_size=1, max_size=3))
    texts = st.sampled_from(pool)
    sections = draw(st.lists(st.builds(Section, name=SECTION_NAMES, text=texts), max_size=4))
    return report_with(sections, raw_text=draw(texts) or "x")


@given(report=shared_read_reports(), keys=ASSEMBLY_KEYS)
@example(report=report_with([Section(name="synoptic", text="a" * 15 + "Σ.b c"),
                             Section(name="diagnosis", text="x")]),
         keys=[(A, 2, ()), (B, 1, ()), (A, 3, ())])
@example(report=report_with([Section(name="synoptic", text="ΟΔΟΣ " * 40),
                             Section(name="diagnosis", text="ΟΔΟΣ " * 40)]),
         keys=[(A, 1, ()), (B, 12, ()), (A, 40, ("specimen",))])
@example(report=report_with([Section(name="diagnosis", text="")]),
         keys=[(A, 1, ()), (B, 1, ())])
@settings(max_examples=300, derandomize=True, deadline=None)
def test_a_shared_read_assembles_as_a_read_of_its_own_in_any_key_order(report, keys):
    alone = {key: assemble_input(report, *key) for key in keys}
    for order in (keys, keys[::-1]):
        read = {}
        for key in order:
            assert assemble_input(report, *key, read) == alone[key]


def test_assembly_normalizes_only_a_prefix_of_a_long_chunk(monkeypatch):
    seen = []

    def counting(text):
        seen.append(len(text))
        return normalize_text(text)

    monkeypatch.setattr(preprocess, "normalize_text", counting)
    long_chunk = "Invasive carcinoma, grade 2. " * 2000
    report = report_with([Section(name="synoptic", text=long_chunk),
                          Section(name="diagnosis", text=long_chunk)])
    out = assemble_input(report, A, token_budget=5)
    assert out.text == "invasive carcinoma grade 2 invasive"
    assert out.truncated and out.sections_used == ("synoptic",)
    assert 0 < sum(seen) < 100  # of 116,000 characters


def test_variant_priority_sections():
    assert A.priority_section == "synoptic"
    assert B.priority_section == "diagnosis"
    assert PipelineVariant.parse("A") is A
    assert PipelineVariant.parse("b_diagnosis_first") is B
    with pytest.raises(ValidationError):
        PipelineVariant.parse("c")


def test_missing_priority_section_falls_back():
    report = report_with([Section(name="diagnosis", text="Benign nevus.")])
    out = assemble_input(report, A, token_budget=512)
    assert out.text == "benign nevus"
    assert out.sections_used == ("diagnosis",)
    assert not out.truncated


def test_priority_ordering_variant_a_and_b():
    report = report_with([
        Section(name="diagnosis", text="benign nevus"),
        Section(name="synoptic", text="tumour size 2 cm"),
    ])
    a = assemble_input(report, A, token_budget=512)
    b = assemble_input(report, B, token_budget=512)
    assert a.text.startswith("tumour size 2 cm")
    assert a.text.endswith("benign nevus")
    assert a.sections_used == ("synoptic", "diagnosis")
    assert b.text.startswith("benign nevus")
    assert b.sections_used == ("diagnosis", "synoptic")
    # complementarity: first tokens differ
    assert a.text.split()[0] != b.text.split()[0]


def test_full_priority_order_with_specimen_and_rest():
    report = report_with([
        Section(name="preamble", text="intro words"),
        Section(name="specimen", text="skin punch"),
        Section(name="synoptic", text="size 2"),
        Section(name="diagnosis", text="melanoma present"),
        Section(name="other", text="addendum note", header="X:"),
    ])
    out = assemble_input(report, A, token_budget=512)
    assert out.sections_used == ("synoptic", "diagnosis", "specimen", "preamble", "other")
    assert out.text == "size 2 melanoma present skin punch intro words addendum note"


def test_duplicate_priority_sections_first_wins_rest_in_doc_order():
    report = report_with([
        Section(name="synoptic", text="first synoptic"),
        Section(name="synoptic", text="second synoptic"),
        Section(name="diagnosis", text="dx"),
    ])
    out = assemble_input(report, A, token_budget=512)
    assert out.text == "first synoptic dx second synoptic"


def test_budget_one_truncates():
    report = report_with([Section(name="diagnosis", text="two tokens")])
    out = assemble_input(report, A, token_budget=1)
    assert out.approx_token_count == 1
    assert out.truncated
    assert out.text == "two"


def test_budget_boundary_not_truncated_when_exact():
    report = report_with([Section(name="diagnosis", text="two tokens")])
    out = assemble_input(report, A, token_budget=2)
    assert out.approx_token_count == 2
    assert not out.truncated


def test_truncation_drops_later_section_from_sections_used():
    report = report_with([
        Section(name="synoptic", text="one two three"),
        Section(name="diagnosis", text="never reached"),
    ])
    out = assemble_input(report, A, token_budget=3)
    assert out.sections_used == ("synoptic",)
    assert out.truncated


def test_fallback_sections_configurable():
    report = report_with([
        Section(name="specimen", text="skin punch"),
        Section(name="clinical", text="history note", header="C:"),
        Section(name="diagnosis", text="dx"),
    ])
    default = assemble_input(report, A, token_budget=512)
    assert default.sections_used == ("diagnosis", "specimen", "clinical")
    custom = assemble_input(report, A, token_budget=512,
                            fallback_sections=("clinical", "specimen"))
    assert custom.sections_used == ("diagnosis", "clinical", "specimen")


def test_empty_report_is_an_error():
    report = PathologyReport(report_id="R", diagnosis_year=2023, raw_text="")
    with pytest.raises(ValidationError, match="empty report"):
        assemble_input(report, A)


def test_unsectioned_report_uses_raw_text():
    report = PathologyReport(report_id="R", diagnosis_year=2023,
                             raw_text="Plain, unstructured text")
    out = assemble_input(report, A)
    assert out.text == "plain unstructured text"
    assert out.sections_used == ("raw_text",)


def test_sections_present_but_empty_bodies():
    report = report_with([Section(name="diagnosis", text="   ")])
    out = assemble_input(report, A)
    assert out.text == ""
    assert out.approx_token_count == 0
    assert out.sections_used == ()
    assert not out.truncated


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=60))
def test_token_budget_invariant(budget, n_tokens):
    text = " ".join(f"tok{i}" for i in range(n_tokens))
    report = report_with([Section(name="diagnosis", text=text)], raw_text=text or "x")
    out = assemble_input(report, A, token_budget=budget)
    assert out.approx_token_count <= budget
    assert out.approx_token_count == len(out.text.split())
    assert out.truncated == (n_tokens > budget)


def test_invalid_budget():
    report = report_with([Section(name="diagnosis", text="x")])
    with pytest.raises(ValidationError):
        assemble_input(report, A, token_budget=0)


def test_normalized_input_is_frozen():
    out = NormalizedInput(text="x", approx_token_count=1, truncated=False,
                          sections_used=("diagnosis",))
    with pytest.raises(AttributeError):
        out.text = "y"
