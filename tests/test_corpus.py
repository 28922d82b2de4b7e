import copy
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from reportable_triage.corpus import (
    Corpus,
    LabeledReport,
    PathologyReport,
    Section,
    SynthSpec,
    T1Label,
    T2Label,
    dumps_record,
    is_normalized_section_name,
    load_corpus,
    record_from_dict,
    synth_corpus,
    write_corpus,
)
from reportable_triage.errors import ValidationError

from oracles import reference_record_from_dict


def make_record(rid, t1=None, t2=None, raw="DIAGNOSIS:\nbenign tissue\n"):
    report = PathologyReport(report_id=rid, diagnosis_year=2023, raw_text=raw)
    return LabeledReport(report=report, t1_label=t1, t2_label=t2)


def test_load_three_valid_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    corpus = Corpus(records=[make_record(f"R{i}") for i in range(3)])
    write_corpus(corpus, path)
    loaded = load_corpus(path)
    assert len(loaded) == 3
    assert [r.report_id for r in loaded] == ["R0", "R1", "R2"]


def test_duplicate_report_id_names_both_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    lines = [dumps_record(make_record(rid)) for rid in ["R0", "R1", "R2", "R3", "R1"]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_corpus(path)
    assert str(exc.value) == ("c.jsonl: line 5: field 'report_id': duplicate 'R1' "
                              "(first on line 2)")


def test_t2_without_t1_cancer_rejected(tmp_path):
    # hand-built line violating the label-consistency invariant
    obj = {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x",
           "t2_label": "reportable"}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_corpus(path)
    assert str(exc.value) == "c.jsonl: line 1: field 't2_label': requires t1_label cancer"
    with pytest.raises(ValidationError):
        make_record("R1", t1=None, t2=T2Label.REPORTABLE)
    with pytest.raises(ValidationError):
        make_record("R1", t1=T1Label.NON_CANCER, t2=T2Label.REPORTABLE)


def test_malformed_line_names_line_and_field(tmp_path):
    path = tmp_path / "c.jsonl"
    good = dumps_record(make_record("R0"))
    bad = json.dumps({"report_id": "R1", "diagnosis_year": "soon", "raw_text": "x"})
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_corpus(path)
    assert str(exc.value) == ("c.jsonl: line 2: field 'diagnosis_year': "
                              "expected an integer, got a string")


def test_invalid_json_names_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=r"^c\.jsonl: line 1: invalid JSON: "):
        load_corpus(path)


def test_unknown_field_strict_vs_lenient(tmp_path, caplog):
    obj = {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "extra": 1}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_corpus(path, strict=True)
    assert str(exc.value) == "c.jsonl: line 1: field 'extra': unknown field"
    with caplog.at_level("WARNING"):
        loaded = load_corpus(path, strict=False)
    assert len(loaded) == 1
    assert any("extra" in rec.message for rec in caplog.records)


def test_empty_corpus_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(Corpus(records=[]), path)
    assert path.read_bytes() == b""
    assert len(load_corpus(path)) == 0


def test_single_record_round_trip(tmp_path):
    path = tmp_path / "c.jsonl"
    corpus = Corpus(records=[make_record("R1", t1=T1Label.CANCER, t2=T2Label.REPORTABLE)])
    write_corpus(corpus, path)
    assert load_corpus(path).records == corpus.records


def test_synth_round_trip_1000(tmp_path):
    corpus = synth_corpus(SynthSpec(n_reports=1000), seed=42)
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)
    assert load_corpus(path).records == corpus.records


def test_synth_empty():
    assert len(synth_corpus(SynthSpec(n_reports=0), seed=1)) == 0


def test_synth_exact_class_counts():
    # round(0.21 * 10400) = 2184, mirroring the source distribution at 1/10 scale
    corpus = synth_corpus(SynthSpec(n_reports=10400, cancer_fraction=0.21), seed=3)
    n_cancer = sum(1 for r in corpus if r.t1_label is T1Label.CANCER)
    assert n_cancer == 2184
    assert len(corpus) == 10400


def test_synth_deterministic_bytes(tmp_path):
    spec = SynthSpec(n_reports=200, vocabulary_signal_strength=0.9)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus(synth_corpus(spec, seed=11), a)
    write_corpus(synth_corpus(spec, seed=11), b)
    assert a.read_bytes() == b.read_bytes()
    write_corpus(synth_corpus(spec, seed=12), tmp_path / "c.jsonl")
    assert a.read_bytes() != (tmp_path / "c.jsonl").read_bytes()


def test_synth_t2_labels_only_on_cancer():
    corpus = synth_corpus(SynthSpec(n_reports=300), seed=5)
    for rec in corpus:
        if rec.t2_label is not None:
            assert rec.t1_label is T1Label.CANCER
    n_cancer = sum(1 for r in corpus if r.t1_label is T1Label.CANCER)
    n_rep = sum(1 for r in corpus if r.t2_label is T2Label.REPORTABLE)
    assert n_rep == round(0.8 * n_cancer)


def test_synth_reports_contain_signal_sections():
    corpus = synth_corpus(SynthSpec(n_reports=10), seed=9)
    for rec in corpus:
        names = [s.name for s in rec.report.sections]
        assert "synoptic" in names and "diagnosis" in names


def test_invalid_label_value(tmp_path):
    obj = {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x",
           "t1_label": "maybe"}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="t1_label") as info:
        load_corpus(path)
    assert str(info.value) == ("c.jsonl: line 1: field 't1_label': "
                               "expected one of: cancer, non_cancer")


def test_section_name_must_be_normalized():
    with pytest.raises(ValidationError):
        Section(name="Has Space", text="x")
    with pytest.raises(ValidationError):
        Section(name="", text="x")


def normalized_by_scan(name):
    """The section-name rule spelled with one isspace test per character."""
    return bool(name) and name == name.lower() and not any(c.isspace() for c in name)


def test_split_and_isspace_agree_on_every_code_point():
    chars = [chr(i) for i in range(sys.maxunicode + 1)]
    assert [c for c in chars if c.split() != [c]] == [c for c in chars if c.isspace()]


@given(name=st.text(st.characters(), max_size=12)
       | st.text(st.sampled_from("aZ_9\t\n\x1c\x85\xa0\u2028\u3000\u200b\ufeff"), max_size=6))
@settings(max_examples=2000, derandomize=True, deadline=None)
def test_is_normalized_section_name_equals_a_per_character_scan(name):
    assert is_normalized_section_name(name) == normalized_by_scan(name)



# --- record_from_dict against the read_field-only reference -------------------

ABSENT = object()
# short strings over ASCII, non-ASCII (a final-sigma pair, an accent) and
# whitespace, plus the names and labels a valid record uses
TEXTS = (st.text(st.sampled_from("aZ_ \t\xa0\u03a3\u03c3\xe9"), max_size=5)
         | st.sampled_from(["", "diagnosis", "synoptic", "Diagnosis", "cancer", "non_cancer",
                            "reportable", "non_reportable"]))
# the values a fault puts in a field: any JSON value, lone surrogates included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | TEXTS
    | st.text(st.sampled_from("a\xe9\ud800\udcff"), min_size=1, max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(TEXTS, inner, max_size=2),
    max_leaves=4)


def mutated(draw, obj: dict, keys: list[str]) -> dict:
    """obj with up to two of keys removed or set to any JSON value."""
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(keys))
        value = draw(st.just(ABSENT) | JSON_VALUES)
        if value is ABSENT:
            obj.pop(key, None)
        else:
            obj[key] = value
    return obj


@st.composite
def section_dicts(draw):
    sec = {"name": draw(st.sampled_from(["diagnosis", "synoptic", "other"])),
           "text": draw(TEXTS)}
    if draw(st.booleans()):
        sec["header"] = draw(TEXTS)
    return mutated(draw, sec, ["name", "text", "header", "Name", "extra"])


@st.composite
def record_dicts(draw):
    years = st.integers(1990, 2030)
    obj = {"report_id": draw(TEXTS.filter(bool)),
           "diagnosis_year": draw(st.one_of(years, years, years, st.booleans())),
           "raw_text": draw(TEXTS)}
    if draw(st.booleans()):
        obj["source_site"] = draw(TEXTS)
    if draw(st.booleans()):
        obj["sections"] = draw(st.lists(section_dicts() | JSON_VALUES, max_size=3))
    t1 = draw(st.sampled_from([None, "cancer", "non_cancer"]))
    if t1 is not None:
        obj["t1_label"] = t1
    if draw(st.booleans()):
        obj["t2_label"] = draw(st.sampled_from(["reportable", "non_reportable"]))
    keys = ["report_id", "diagnosis_year", "source_site", "raw_text", "sections",
            "t1_label", "t2_label", "extra", "Report_id"]
    return mutated(draw, obj, keys)


def loaded(read, obj, strict: bool, caplog):
    """What read returns or raises on obj, and the warnings it logs."""
    caplog.clear()
    with caplog.at_level("WARNING"):
        try:
            out = ("record", read(copy.deepcopy(obj), strict=strict, where="c.jsonl: line 3"))
        except Exception as exc:  # noqa: BLE001 - the type is compared
            out = (type(exc), str(exc))
    return out, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("obj", [
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x"},
    {"diagnosis_year": 2023, "raw_text": "x"},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": None},
    {"report_id": "R1", "diagnosis_year": True, "raw_text": "x"},
    {"report_id": "R1", "diagnosis_year": 2023.0, "raw_text": "x"},
    {"report_id": "", "diagnosis_year": 2023, "raw_text": "x"},
    {"report_id": "R\u00e9", "diagnosis_year": 2023, "raw_text": "\u03a3\u03c3",
     "source_site": "s\u00e9"},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "a\ud800"},
    {"report_id": "R\udcff", "diagnosis_year": 2023, "raw_text": "x"},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "source_site": None},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "source_site": "\ud800"},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "sections": None},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "sections": {}},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "sections": [5]},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x",
     "sections": [{"name": "diagnosis", "text": "t", "header": None}]},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x",
     "sections": [{"name": "Diagnosis", "text": "t"}]},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x",
     "sections": [{"name": "di\u00e4gnosis", "text": "t\ud800"}]},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x",
     "sections": [{"name": "diagnosis", "text": "t", "extra": 1, "more": 2}]},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "extra": 1, "more": 2},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "t1_label": "maybe"},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "t1_label": None,
     "t2_label": "reportable"},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "t1_label": "non_cancer",
     "t2_label": "reportable"},
    {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x", "t1_label": "cancer",
     "t2_label": "\ud800"},
    {"report_id": 5, "diagnosis_year": "soon", "raw_text": "x", "extra": 1},
    [{"report_id": "R1"}],
])
def test_record_from_dict_equals_reference_on_each_kind_of_fault(obj, strict, caplog):
    assert (loaded(record_from_dict, obj, strict, caplog)
            == loaded(reference_record_from_dict, obj, strict, caplog))


@given(obj=record_dicts() | JSON_VALUES, strict=st.booleans())
@settings(max_examples=1500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_record_from_dict_equals_reference(obj, strict, caplog):
    """The inline checks accept what read_field accepts, build the same record,
    and otherwise raise the same error after logging the same warnings."""
    assert (loaded(record_from_dict, obj, strict, caplog)
            == loaded(reference_record_from_dict, obj, strict, caplog))
