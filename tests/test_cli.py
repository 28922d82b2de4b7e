import copy
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from reportable_triage.backend.baseline import (
    TrainHyper,
    load_baseline,
    save_baseline,
    score_batch,
    train_baseline,
)
from reportable_triage.cli import main
from reportable_triage.corpus import (
    Corpus,
    LabeledReport,
    PathologyReport,
    Section,
    SynthSpec,
    T1Label,
    T2Label,
    load_corpus,
    synth_corpus,
    write_corpus,
)
from reportable_triage.preprocess import PipelineVariant, assemble_input

from cli_util import config_doc, write_config
from mock_server import MockClassifyServer


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A fully trained desk-scale pipeline shared by the CLI tests."""
    base = tmp_path_factory.mktemp("pipeline")
    corpus = synth_corpus(SynthSpec(n_reports=600, vocabulary_signal_strength=1.0), seed=7)
    write_corpus(corpus, base / "corpus.jsonl")
    config = write_config(base)
    for tier in ("t1", "t2"):
        assert main(["--config", str(config), "build-dataset", "--tier", tier]) == 0
        for variant in ("a", "b"):
            assert main(["--config", str(config), "train-baseline",
                         "--tier", tier, "--variant", variant]) == 0
    return base, config, corpus


# --- synth -------------------------------------------------------------------

def test_synth_writes_expected_counts(tmp_path, capsys):
    out = tmp_path / "c.jsonl"
    code = main(["synth", "--n", "1000", "--cancer-frac", "0.21",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    corpus = load_corpus(out)
    assert sum(1 for r in corpus if r.t1_label is T1Label.CANCER) == 210
    assert "cancer=210" in capsys.readouterr().out


def test_synth_zero_records(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["synth", "--n", "0", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_synth_invalid_fraction_exits_1(tmp_path, capsys):
    code = main(["synth", "--n", "10", "--cancer-frac", "1.5", "--seed", "1",
                 "--out", str(tmp_path / "c.jsonl")])
    assert code == 1
    assert "cancer_fraction" in capsys.readouterr().err


def test_synth_requires_seed(tmp_path, capsys):
    code = main(["synth", "--n", "10", "--out", str(tmp_path / "c.jsonl")])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_global_seed_fallback(tmp_path):
    out = tmp_path / "c.jsonl"
    assert main(["--seed", "7", "synth", "--n", "50", "--out", str(out)]) == 0
    direct = tmp_path / "d.jsonl"
    assert main(["synth", "--n", "50", "--seed", "7", "--out", str(direct)]) == 0
    assert out.read_bytes() == direct.read_bytes()


def test_unknown_flag_exits_1(capsys):
    assert main(["synth", "--bogus", "1"]) == 1


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "command" in capsys.readouterr().out


# --- build-dataset -------------------------------------------------------------

def test_build_dataset_manifest_eq1(pipeline):
    base, _, _ = pipeline
    manifest = json.loads((base / "out/t1/manifest.json").read_text())
    counts = manifest["counts"]
    train_cancer = counts["train_before_undersample"]["cancer"]
    assert counts["train"]["non_cancer"] == int(0.8 * train_cancer)
    assert counts["train"]["cancer"] == train_cancer
    assert manifest["undersample"] == {"kept_class": "cancer",
                                       "sampled_class": "non_cancer",
                                       "ratio": 0.8, "seed": 12}
    assert (base / "out/t1/train.jsonl").is_file()
    assert (base / "out/t1/test.jsonl").is_file()


def test_build_dataset_manifest_eq2(pipeline):
    base, _, _ = pipeline
    manifest = json.loads((base / "out/t2/manifest.json").read_text())
    counts = manifest["counts"]
    non_rep = counts["train_before_undersample"]["non_reportable"]
    expected = min(int(1.2 * non_rep), counts["train_before_undersample"]["reportable"])
    assert counts["train"]["reportable"] == expected
    assert manifest["undersample"]["ratio"] == 1.2


def test_build_dataset_manifest_is_the_whole_document(tmp_path):
    # 10 cancer and 40 non-cancer records: stratified 80/20, then 0.8 x 8 non-cancers kept
    write_corpus(synth_corpus(SynthSpec(n_reports=50, cancer_fraction=0.2), seed=5),
                 tmp_path / "corpus.jsonl")
    config = write_config(tmp_path)
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 0
    assert json.loads((tmp_path / "out/t1/manifest.json").read_text()) == {
        "task": "t1",
        "split": {"train_fraction": 0.8, "seed": 11, "stratified": True},
        "undersample": {"kept_class": "cancer", "sampled_class": "non_cancer",
                        "ratio": 0.8, "seed": 12},
        "counts": {
            "input": {"cancer": 10, "non_cancer": 40},
            "train_before_undersample": {"cancer": 8, "non_cancer": 32},
            "train": {"cancer": 8, "non_cancer": 6},
            "test": {"cancer": 2, "non_cancer": 8},
        },
        "outputs": {"train": "train.jsonl", "test": "test.jsonl"},
    }


def test_build_dataset_rerun_is_byte_identical(pipeline, tmp_path):
    base, config, _ = pipeline
    rerun = tmp_path / "rerun"
    assert main(["--config", str(config), "--out-dir", str(rerun),
                 "build-dataset", "--tier", "t1"]) == 0
    for name in ("manifest.json", "train.jsonl", "test.jsonl"):
        assert (rerun / "t1" / name).read_bytes() == (base / "out/t1" / name).read_bytes()


def test_build_dataset_missing_corpus_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, corpus="absent.jsonl")
    code = main(["--config", str(config), "build-dataset", "--tier", "t1"])
    assert code == 1
    assert "absent.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("key_path, value", [
    (("tiers", "t1", "members", 0, "threshold"), "abc"),
    (("remote",), [1]),
    (("tiers", "t1", "train", "epochs"), None),
    (("tiers", "t1", "split"), 5),
    (("tiers", "t1", "train", "learning_rate"), 10 ** 400),
    (("tiers", "t1", "undersample", "ratio"), math.nan),
    (("tiers", "t1", "undersample", "ratio"), 1e400),
    (("tiers", "t1", "train", "l2"), math.nan),
    (("tiers", "t1", "train", "learning_rate"), 1e400),
], ids=["threshold-string", "remote-list", "epochs-null", "split-number", "huge-number",
        "ratio-nan", "ratio-1e400", "l2-nan", "learning-rate-1e400"])
def test_config_value_of_wrong_type_exits_1(tmp_path, capsys, key_path, value):
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    parent = doc
    for key in key_path[:-1]:
        parent = parent[key]
    parent[key_path[-1]] = value
    config.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["--config", str(config), "build-dataset", "--tier", "t1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and repr(key_path[-1]) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key_path, value, line", [
    (("tiers", "t2", "train", "epochs"), 0,
     "tiers.t2.train: epochs and learning_rate must be positive, l2 >= 0"),
    (("tiers", "t1", "train", "feature_dim"), 3,
     "tiers.t1.train: feature_dim must be a power of two in [2, 16777216], got 3"),
    (("tiers", "t2", "split", "train_fraction"), 1.5,
     "tiers.t2.split: train_fraction must be in (0, 1), got 1.5"),
    (("tiers", "t1", "undersample", "ratio"), -1,
     "tiers.t1.undersample: ratio must be positive, got -1.0"),
    (("tiers", "t2", "undersample", "kept_class"), "reportable",
     "tiers.t2.undersample: kept_class and sampled_class must differ"),
    (("tiers", "t1", "members", 0, "variant"), "z",
     "tiers.t1.members[0]: field 'variant': expected one of: a, b"),
    (("tiers", "t1", "members", 0), "t1-baseline-a",
     "tiers.t1.members[0]: member must be an object"),
    (("tiers", "t2", "members", 1, "token_budget"), 0,
     "tiers.t2.members[1]: token_budget must be positive"),
    (("tiers", "t1", "members", 0, "fallback_sections"), ["specimen", "Gross Description"],
     "tiers.t1.members[0]: fallback_sections must be a list of normalized section names"),
    (("tiers", "t2", "train", "seed"), -1, "tiers.t2.train: seed must be in [0, 2^63)"),
    (("tiers", "t1", "train", "seed"), 1 << 63, "tiers.t1.train: seed must be in [0, 2^63)"),
    (("tiers", "t2", "members", 1, "variant"), "a",
     "tiers.t2: members must cover variants A and B exactly"),
], ids=["epochs-0", "feature-dim-3", "train-fraction-1.5", "ratio-negative",
        "kept-equals-sampled", "variant-unknown", "member-not-an-object", "token-budget-0",
        "fallback-not-normalized", "train-seed-negative", "train-seed-2^63", "both-variant-a"])
def test_config_value_breaking_a_rule_names_its_key_path(tmp_path, capsys, key_path, value,
                                                          line):
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    parent = doc
    for key in key_path[:-1]:
        parent = parent[key]
    parent[key_path[-1]] = value
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("edits, line", [
    ({("tiers", "t2", "split", "train_fraction"): 1.5, ("tiers", "t2", "split", "stratify"): 1},
     "tiers.t2.split: train_fraction must be in (0, 1), got 1.5"),
    ({("tiers", "t1", "undersample", "ratio"): -1, ("tiers", "t1", "undersample", "ratoi"): 1},
     "tiers.t1.undersample: ratio must be positive, got -1.0"),
    ({("tiers", "t1", "undersample", "kept_class"): "cancr",
      ("tiers", "t1", "undersample", "sampled_class"): 5},
     "tiers.t1.undersample: field 'kept_class': expected one of: cancer, non_cancer"),
    ({("tiers", "t1", "train", "epochs"): 0, ("tiers", "t1", "train", "learning_rte"): 0.1},
     "tiers.t1.train: epochs and learning_rate must be positive, l2 >= 0"),
    ({("tiers", "t1", "train", "seed"): "13", ("tiers", "t1", "train", "epochs"): 0},
     "tiers.t1.train: epochs and learning_rate must be positive, l2 >= 0"),
    ({("tiers", "t2", "members", 1, "token_budget"): 0,
      ("tiers", "t2", "members", 1, "threshhold"): 0.5},
     "tiers.t2.members[1]: token_budget must be positive"),
    ({("remote", "timeout"): 0, ("remote", "max_retry"): 1}, "remote: unknown key 'max_retry'"),
], ids=["split", "undersample", "undersample-classes", "train", "train-seed-string-epochs-0",
        "member", "remote"])
def test_config_object_with_two_faults_names_the_same_one(tmp_path, capsys, edits, line):
    # each object's reads and checks keep their order, so the fault named first stays
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    for key_path, value in edits.items():
        parent = doc
        for key in key_path[:-1]:
            parent = parent[key]
        parent[key_path[-1]] = value
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_native_member_without_model_path_exits_1(tmp_path, capsys):
    # named when the config loads, not after train-baseline has trained the member
    write_corpus(synth_corpus(SynthSpec(n_reports=50), seed=1), tmp_path / "corpus.jsonl")
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    del doc["tiers"]["t2"]["members"][1]["model_path"]
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    assert capsys.readouterr().err == (
        "error: tiers.t2.members[1]: field 'model_path': missing required field\n")


@pytest.mark.parametrize("key_path, key, where", [
    ((), "remot", None),
    (("tiers",), "t3", "tiers"),
    (("tiers", "t1"), "workers", "tiers.t1"),
    (("tiers", "t2", "split"), "stratify", "tiers.t2.split"),
    (("tiers", "t1", "undersample"), "ratoi", "tiers.t1.undersample"),
    (("tiers", "t1", "train"), "learning_rte", "tiers.t1.train"),
    (("tiers", "t2", "members", 1), "threshhold", "tiers.t2.members[1]"),
    (("remote",), "max_retry", "remote"),
    (("remote", "endpoints"), "t3", "remote.endpoints"),
    (("tiers", "t1", "members", 0), "k" * 100_000, "tiers.t1.members[0]"),
], ids=["top-level", "tiers", "tier", "split", "undersample", "train", "member", "remote",
        "endpoints", "long-key"])
def test_config_unknown_key_exits_1_naming_its_key_path(tmp_path, capsys, key_path, key,
                                                        where):
    # a key nothing reads is a typo or a setting this version lacks; only the
    # top-level workers, which older configs set, is accepted and ignored
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["workers"] = 2
    parent = doc
    for step in key_path:
        parent = parent[step]
    parent[key] = "http://127.0.0.1:9"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    shown = repr(key) if len(key) < 100 else f"of {len(key)} characters"
    assert capsys.readouterr().err == f"error: {where or config}: unknown key {shown}\n"


@pytest.mark.parametrize("key", ["kept_class", "sampled_class"])
def test_config_undersample_class_not_a_label_names_the_field(tmp_path, capsys, key):
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["tiers"]["t1"]["undersample"][key] = "cancr"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    err = capsys.readouterr().err
    assert (f"error: tiers.t1.undersample: field '{key}': expected one of: cancer, non_cancer"
            in err)
    assert "cancr" not in err


@pytest.mark.parametrize("source, line", [
    ("member kind", "tiers.t1.members[0]: field 'kind': expected one of: native_baseline, remote"),
    ("config endpoint", "remote.endpoints: field 't1': not an http(s) URL with a host"),
    ("environment endpoint",
     "environment variable TRIAGE_REMOTE_ENDPOINT_T1: not an http(s) URL with a host"),
])
def test_megabyte_config_value_exits_1_with_a_short_error_line(tmp_path, capsys, monkeypatch,
                                                                source, line):
    huge = "x" * 1_000_000
    write_corpus(synth_corpus(SynthSpec(n_reports=5), seed=2), tmp_path / "corpus.jsonl")
    good = "http://127.0.0.1:9"  # never contacted: the config is rejected first
    doc = config_doc(remote_kind=True,
                     remote={"timeout": 0.3, "max_retries": 0,
                             "endpoints": {"t1": good, "t2": good}})
    if source == "member kind":
        doc["tiers"]["t1"]["members"][0]["kind"] = huge
    elif source == "config endpoint":
        doc["remote"]["endpoints"]["t1"] = huge
    else:
        monkeypatch.setenv("TRIAGE_REMOTE_ENDPOINT_T1", huge)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {line}\n"
    assert len(err) < 200


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_config_threshold_outside_0_1_exits_1(tmp_path, capsys, threshold):
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    doc["tiers"]["t1"]["members"][1]["threshold"] = threshold
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    assert capsys.readouterr().err == \
        "error: tiers.t1.members[1]: threshold must be in (0, 1)\n"


CONFIG_FILE_DAMAGE = {
    "leading 0xff byte": (lambda text: b"\xff" + text, "not UTF-8: byte 0xff"),
    "5,000-digit integer": (lambda text: text.replace(b'"epochs": 4', b'"epochs": ' + b"1" * 5000),
                            "integer literal too long"),
    "100,000 [": (lambda text: b"[" * 100_000, "nested too deeply"),
}


@pytest.mark.parametrize("case", sorted(CONFIG_FILE_DAMAGE))
def test_unreadable_config_file_exits_1_naming_it(tmp_path, capsys, case):
    damage, reason = CONFIG_FILE_DAMAGE[case]
    config = write_config(tmp_path)
    config.write_bytes(damage(config.read_bytes()))
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and reason in err
    assert "Traceback" not in err


def test_config_path_that_is_a_directory_exits_1_naming_it(tmp_path, capsys):
    assert main(["--config", str(tmp_path), "build-dataset", "--tier", "t1"]) == 1
    assert capsys.readouterr().err == f"error: config path is a directory: {tmp_path}\n"


# --- train-baseline -------------------------------------------------------------

def test_train_prints_loss_and_seed(pipeline, capsys, tmp_path):
    base, config, _ = pipeline
    rerun = tmp_path / "out2"
    assert main(["--config", str(config), "--out-dir", str(rerun),
                 "build-dataset", "--tier", "t1"]) == 0
    assert main(["--config", str(config), "--out-dir", str(rerun),
                 "train-baseline", "--tier", "t1", "--variant", "a"]) == 0
    out = capsys.readouterr().out
    assert "seed=13" in out and "final_loss=" in out
    # identical invocation produces identical model bytes
    assert (rerun / "models/t1_a.bin").read_bytes() == \
        (base / "out/models/t1_a.bin").read_bytes()


def test_train_missing_dataset_exits_1(tmp_path, capsys):
    corpus = synth_corpus(SynthSpec(n_reports=50), seed=3)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    config = write_config(tmp_path)
    code = main(["--config", str(config), "train-baseline",
                 "--tier", "t1", "--variant", "a"])
    assert code == 1
    assert "train.jsonl" in capsys.readouterr().err


def test_train_that_diverges_exits_2_and_writes_no_model(tmp_path, capsys):
    write_corpus(synth_corpus(SynthSpec(n_reports=200), seed=3), tmp_path / "corpus.jsonl")
    doc = config_doc()
    doc["tiers"]["t1"]["train"]["learning_rate"] = 1e30
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would add lines
        code = main(["--config", str(config), "train-baseline", "--tier", "t1", "--variant", "a"])
    assert code == 2
    assert capsys.readouterr().err == ("error: member 't1-baseline-a': training diverged "
                                       "(final_loss=nan); no model file written\n")
    assert not (tmp_path / "out" / "models").exists()


def test_train_high_training_accuracy_on_separable_set(pipeline):
    base, _, _ = pipeline
    from reportable_triage.backend.baseline import load_baseline, score_batch
    from reportable_triage.preprocess import PipelineVariant, assemble_input

    model = load_baseline(base / "out/models/t1_a.bin")
    train = load_corpus(base / "out/t1/train.jsonl")
    inputs = [assemble_input(r.report, PipelineVariant.A_SYNOPTIC_FIRST, 256)
              for r in train]
    scores = score_batch(model, model.featurize(inputs))
    preds = [s >= 0.5 for s in scores]
    golds = [r.t1_label is T1Label.CANCER for r in train]
    accuracy = sum(p == g for p, g in zip(preds, golds)) / len(golds)
    assert accuracy >= 0.99


# --- triage ----------------------------------------------------------------------

def test_triage_end_to_end_counts(pipeline, capsys):
    base, config, corpus = pipeline
    out = base / "out/outcomes.jsonl"
    assert main(["--config", str(config), "triage",
                 "--corpus", str(base / "out/t1/test.jsonl"),
                 "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "triaged" in stdout and "non_cancer:" in stdout
    lines = out.read_text().splitlines()
    test_corpus = load_corpus(base / "out/t1/test.jsonl")
    assert len(lines) == len(test_corpus)
    first = json.loads(lines[0])
    assert first["report_id"] == test_corpus.records[0].report_id


def test_triage_all_benign_corpus_mostly_non_cancer(pipeline, tmp_path):
    base, config, _ = pipeline
    benign = synth_corpus(SynthSpec(n_reports=100, cancer_fraction=0.0,
                                    vocabulary_signal_strength=1.0), seed=19)
    benign_path = tmp_path / "benign.jsonl"
    write_corpus(benign, benign_path)
    out = tmp_path / "outcomes.jsonl"
    assert main(["--config", str(config), "triage", "--corpus", str(benign_path),
                 "--out", str(out)]) == 0
    outcomes = [json.loads(l) for l in out.read_text().splitlines()]
    frac = sum(1 for o in outcomes if o["final"] == "non_cancer") / len(outcomes)
    assert frac >= 0.95


def test_triage_empty_corpus(pipeline, tmp_path):
    _, config, _ = pipeline
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    out = tmp_path / "outcomes.jsonl"
    assert main(["--config", str(config), "triage", "--corpus", str(empty),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_triage_unreachable_remote_exits_2(tmp_path, capsys):
    with MockClassifyServer() as server:
        dead = server.endpoint  # port is closed once the context exits
    corpus = synth_corpus(SynthSpec(n_reports=5), seed=2)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    config = write_config(tmp_path, remote_kind=True,
                          remote={"timeout": 0.3, "max_retries": 0,
                                  "endpoints": {"t1": dead, "t2": dead}})
    code = main(["--config", str(config), "triage",
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unreachable" in err
    # the cascade names the failing member; the backend adds no second name
    assert err.count("backend 't1-baseline-a'") == 1
    assert err.count("backend '") == 1


def test_triage_messages_name_the_endpoint_without_its_credentials(tmp_path, capsys, caplog):
    with MockClassifyServer() as server:
        dead = server.endpoint.replace("http://", "http://alice:s3cret@")
        url = f"{server.endpoint}/v1/classify"
    write_corpus(synth_corpus(SynthSpec(n_reports=5), seed=2), tmp_path / "corpus.jsonl")
    config = write_config(tmp_path, remote_kind=True,
                          remote={"timeout": 0.3, "max_retries": 1,
                                  "endpoints": {"t1": dead, "t2": dead}})
    code = main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{url}: unreachable after 2 attempts" in err
    assert f"transport failure on {url} (attempt 1/2)" in caplog.text
    assert "s3cret" not in err + caplog.text


def test_triage_empty_report_in_a_later_remote_batch_exits_1(tmp_path, capsys):
    # report 550 fails to assemble while tier 1's request for reports 256..511
    # is in flight: it is bad input (exit 1), not a failure of that batch's backend
    corpus = synth_corpus(SynthSpec(n_reports=600), seed=2)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    lines = (tmp_path / "corpus.jsonl").read_text().splitlines(keepends=True)
    record = json.loads(lines[550])
    record["raw_text"] = ""
    record.pop("sections", None)
    lines[550] = json.dumps(record) + "\n"
    (tmp_path / "corpus.jsonl").write_text("".join(lines))
    with MockClassifyServer(MockClassifyServer.score_per_text(0.5)) as server:
        config = write_config(tmp_path, remote_kind=True,
                              remote={"timeout": 5, "max_retries": 0,
                                      "endpoints": {"t1": server.endpoint,
                                                    "t2": server.endpoint}})
        code = main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: empty report {record['report_id']!r}"]
    assert len(server.requests) >= 1  # reports 0..255 were scored first


def scores_per_text(score: bytes):
    def respond(texts):
        return 200, b'{"scores": [' + b",".join([score] * len(texts)) + b"]}"
    return respond


REMOTE_FAILURES = {  # case: (texts -> (status, body), the reason remote_score gives)
    "status 503": (lambda texts: (503, b"busy"), "status 503"),
    "body not JSON": (lambda texts: (200, b"<html>oops</html>"),
                      "malformed response body: invalid JSON: Expecting value"),
    "no scores": (lambda texts: (200, b'{"result": []}'), "response missing 'scores' array"),
    "count mismatch": (lambda texts: (200, b'{"scores": [0.5]}'),
                       "score count mismatch: sent 5 texts, got 1 scores"),
    "score not a number": (scores_per_text(b'"high"'), "scores[0] is not a number, got a string"),
    "score out of range": (scores_per_text(b"1.5"), "scores[0] out of range [0, 1]: 1.5"),
    "4,300-digit score": (scores_per_text(b"9" * 4300),
                          "scores[0] out of range [0, 1]: an integer"),
}


@pytest.mark.parametrize("case", sorted(REMOTE_FAILURES))
def test_triage_failing_remote_exits_2_naming_the_member_once(tmp_path, capsys, case):
    respond, reason = REMOTE_FAILURES[case]
    corpus = synth_corpus(SynthSpec(n_reports=5), seed=2)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    first, last = corpus.records[0].report_id, corpus.records[-1].report_id
    with MockClassifyServer(lambda captured: respond(json.loads(captured.body)["texts"])) \
            as server:
        config = write_config(tmp_path, remote_kind=True,
                              remote={"timeout": 5, "max_retries": 0,
                                      "endpoints": {"t1": server.endpoint,
                                                    "t2": server.endpoint}})
        code = main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: backend 't1-baseline-a' failed on reports {first!r}..{last!r}: "
        f"{server.endpoint}/v1/classify: {reason}"]
    assert err.count("backend '") == 1
    assert "Traceback" not in err


def test_process_entry_point_keeps_the_exit_code_contract(tmp_path):
    def run(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.run([sys.executable, "-m", "reportable_triage.cli", *argv],
                              env=env, cwd=tmp_path, capture_output=True, text=True,
                              timeout=60)

    def huge_scores(captured):  # beyond float range: out of [0, 1], not a crash
        n = len(json.loads(captured.body)["texts"])
        return 200, b'{"scores": [' + b",".join([b"9" * 400] * n) + b"]}"

    synth = run("synth", "--n", "5", "--seed", "2", "--out", "corpus.jsonl")
    assert synth.returncode == 0, synth.stderr
    missing_config = run("build-dataset", "--tier", "t1")
    with MockClassifyServer(huge_scores) as server:
        config = write_config(tmp_path, remote_kind=True,
                              remote={"timeout": 5, "max_retries": 0,
                                      "endpoints": {"t1": server.endpoint,
                                                    "t2": server.endpoint}})
        huge_score = run("--config", str(config), "triage")
    for failed, code, reason in ((missing_config, 1, "requires --config"),
                                 (huge_score, 2, "out of range")):
        assert failed.returncode == code, failed.stderr
        assert "Traceback" not in failed.stderr
        [error] = [line for line in failed.stderr.splitlines() if line.startswith("error: ")]
        assert reason in error


@pytest.mark.parametrize("key, value, reason", [
    ("timeout", -1, "must be positive"),
    ("timeout", 0, "must be positive"),
    ("max_retries", -1, "must not be negative"),
], ids=["timeout -1", "timeout 0", "max_retries -1"])
def test_triage_remote_setting_out_of_range_exits_1(tmp_path, capsys, key, value, reason):
    with MockClassifyServer() as server:
        dead = server.endpoint  # never contacted: the config is rejected on load
    write_corpus(synth_corpus(SynthSpec(n_reports=5), seed=2), tmp_path / "corpus.jsonl")
    remote = {"timeout": 0.3, "max_retries": 0, "endpoints": {"t1": dead, "t2": dead}}
    config = write_config(tmp_path, remote_kind=True, remote={**remote, key: value})
    code = main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == f"error: remote: field '{key}': {reason}\n"


NOT_A_URL, HAS_QUERY = "not an http(s) URL with a host", "has a query or a fragment"
# /v1/classify would go after the query or into the fragment, so these are refused too
QUERY_OR_FRAGMENT = [("http://host/api?key=k", HAS_QUERY), ("http://host/api#frag", HAS_QUERY),
                     ("http://host/?", HAS_QUERY)]
CONFIG_ENDPOINTS = [(url, NOT_A_URL) for url in (
    "not-a-url", "localhost:8080", "ftp://example.org", "http://", "http://host:99999",
    "http://host:port", "http://[::1", "")] + QUERY_OR_FRAGMENT


@pytest.mark.parametrize("endpoint, reason", CONFIG_ENDPOINTS,
                         ids=[url for url, _ in CONFIG_ENDPOINTS])
def test_triage_malformed_config_endpoint_exits_1_naming_the_key(tmp_path, capsys, endpoint,
                                                                 reason):
    write_corpus(synth_corpus(SynthSpec(n_reports=5), seed=2), tmp_path / "corpus.jsonl")
    good = "http://127.0.0.1:9"  # never contacted: the config is rejected on load
    config = write_config(tmp_path, remote_kind=True,
                          remote={"timeout": 0.3, "max_retries": 0,
                                  "endpoints": {"t1": good, "t2": endpoint}})
    code = main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")])
    assert code == 1
    assert capsys.readouterr().err == f"error: remote.endpoints: field 't2': {reason}\n"
    # any command loads the config, so a bad endpoint fails it too
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1


ENVIRONMENT_ENDPOINTS = [(url, NOT_A_URL) for url in (
    "not-a-url", "http://host:port", "mailto:registry@example.org")] + QUERY_OR_FRAGMENT[:1]


@pytest.mark.parametrize("endpoint, reason", ENVIRONMENT_ENDPOINTS,
                         ids=[url for url, _ in ENVIRONMENT_ENDPOINTS])
def test_triage_malformed_environment_endpoint_exits_1_naming_the_variable(
        tmp_path, capsys, monkeypatch, endpoint, reason):
    write_corpus(synth_corpus(SynthSpec(n_reports=5), seed=2), tmp_path / "corpus.jsonl")
    with MockClassifyServer() as server:
        config = write_config(tmp_path, remote_kind=True,
                              remote={"timeout": 5.0, "max_retries": 0,
                                      "endpoints": {"t1": server.endpoint,
                                                    "t2": server.endpoint}})
        monkeypatch.setenv("TRIAGE_REMOTE_ENDPOINT_T1", endpoint)
        code = main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")])
        assert server.requests == []
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: environment variable TRIAGE_REMOTE_ENDPOINT_T1: {reason}\n")


def test_triage_remote_backend_roundtrip(tmp_path):
    corpus = synth_corpus(SynthSpec(n_reports=6), seed=2)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    with MockClassifyServer(MockClassifyServer.score_per_text(0.9)) as server:
        config = write_config(
            tmp_path, remote_kind=True,
            remote={"timeout": 5.0, "max_retries": 1,
                    "endpoints": {"t1": server.endpoint, "t2": server.endpoint}})
        out = tmp_path / "o.jsonl"
        assert main(["--config", str(config), "triage", "--out", str(out)]) == 0
        outcomes = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(o["final"] == "cancer_reportable" for o in outcomes)
        paths = {r.path for r in server.requests}
        assert paths == {"/v1/classify"}


# --- evaluate ---------------------------------------------------------------------

def run_evaluate(config, outcomes, gold, tier, out_dir, gating="predicted"):
    return main(["--config", str(config), "evaluate", "--outcomes", str(outcomes),
                 "--gold", str(gold), "--tier", tier, "--gating", gating,
                 "--out", str(out_dir)])


def test_evaluate_perfect_scores(pipeline, tmp_path, capsys):
    base, config, _ = pipeline
    test_path = base / "out/t1/test.jsonl"
    outcomes_path = tmp_path / "outcomes.jsonl"
    assert main(["--config", str(config), "triage", "--corpus", str(test_path),
                 "--out", str(outcomes_path)]) == 0
    capsys.readouterr()
    assert run_evaluate(config, outcomes_path, test_path, "t1", tmp_path) == 0
    stdout = capsys.readouterr().out
    assert "Recall" in stdout and "F1 score" in stdout
    doc = json.loads((tmp_path / "eval_t1.json").read_text())
    combined = next(m for m in doc["models"] if m["model"] == "combined")
    # perfect separation at signal strength 1.0
    assert combined["per_class"]["cancer"]["recall"] == 1.0
    assert combined["missed_positive_count"] == 0
    assert (tmp_path / "eval_t1.txt").is_file()


def synthetic_outcome_line(rid, member_a, member_b, tier="t1"):
    def member(backend_id, positive):
        label = ("cancer" if positive else "non_cancer") if tier == "t1" else \
            ("reportable" if positive else "non_reportable")
        return {"backend_id": backend_id, "label": label,
                "probability": 0.9 if positive else 0.1, "threshold": 0.5}

    combined = member_a or member_b
    label = ("cancer" if combined else "non_cancer") if tier == "t1" else \
        ("reportable" if combined else "non_reportable")
    block = {"combined": label, "combined_by": "or",
             "members": [member("model-a", member_a), member("model-b", member_b)]}
    # final as triage derives it: t1 negative -> non_cancer; a positive t2 -> reportable
    if tier == "t1":
        final = "cancer_non_reportable" if combined else "non_cancer"
    else:
        final = "cancer_reportable" if combined else "cancer_non_reportable"
    outcome = {"report_id": rid, "final": final, "t1": block}
    if tier == "t2":
        outcome["t1"] = {"combined": "cancer", "combined_by": "or",
                         "members": [member("model-a", True), member("model-b", True)]}
        outcome["t1"]["members"][0]["label"] = "cancer"
        outcome["t1"]["members"][1]["label"] = "cancer"
        outcome["t2"] = block
    return json.dumps(outcome)


def engineered_fixture(tmp_path, n_pos, n_neg, miss_a, miss_b, tier="t1"):
    """Gold positives 0..n_pos-1; members miss the given index sets."""
    gold_records = []
    outcome_lines = []
    for i in range(n_pos + n_neg):
        rid = f"E{i}"
        positive = i < n_pos
        report = PathologyReport(report_id=rid, diagnosis_year=2023, raw_text="x")
        if tier == "t1":
            gold_records.append(LabeledReport(
                report=report,
                t1_label=T1Label.CANCER if positive else T1Label.NON_CANCER))
        else:
            gold_records.append(LabeledReport(
                report=report, t1_label=T1Label.CANCER,
                t2_label=T2Label.REPORTABLE if positive else T2Label.NON_REPORTABLE))
        pred_a = positive and i not in miss_a or (not positive and False)
        pred_b = positive and i not in miss_b or (not positive and False)
        outcome_lines.append(synthetic_outcome_line(rid, pred_a, pred_b, tier))
    gold_path = tmp_path / "gold.jsonl"
    write_corpus(Corpus(records=gold_records), gold_path)
    outcomes_path = tmp_path / "outcomes.jsonl"
    outcomes_path.write_text("\n".join(outcome_lines) + "\n", encoding="utf-8")
    return gold_path, outcomes_path


def test_evaluate_engineered_missed_counts_t1(tmp_path, capsys):
    # member misses {48, 54} with overlap 24 -> ensemble misses exactly 24
    miss_a = set(range(0, 48))
    miss_b = set(range(24, 78))
    gold, outcomes = engineered_fixture(tmp_path, n_pos=2000, n_neg=500,
                                        miss_a=miss_a, miss_b=miss_b)
    assert main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "eval_t1.json").read_text())
    missed = {m["model"]: m["missed_positive_count"] for m in doc["models"]}
    assert missed == {"model-a": 48, "model-b": 54, "combined": 24}
    # row order is member A, member B, Combined
    assert [m["model"] for m in doc["models"]] == ["model-a", "model-b", "combined"]


def test_evaluate_engineered_missed_counts_t2(tmp_path):
    # member misses {54, 46} with overlap 33 -> ensemble misses exactly 33
    miss_a = set(range(0, 54))
    miss_b = set(range(21, 67))
    gold, outcomes = engineered_fixture(tmp_path, n_pos=1500, n_neg=300,
                                        miss_a=miss_a, miss_b=miss_b, tier="t2")
    assert len(miss_a & miss_b) == 33 and len(miss_b) == 46
    assert main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t2", "--gating", "gold", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "eval_t2.json").read_text())
    missed = {m["model"]: m["missed_positive_count"] for m in doc["models"]}
    assert missed == {"model-a": 54, "model-b": 46, "combined": 33}
    assert doc["n_gold"] == 1800


def test_evaluate_gold_gating_requires_t2_results(pipeline, tmp_path, capsys):
    base, config, _ = pipeline
    test_path = base / "out/t2/test.jsonl"
    predicted = tmp_path / "predicted.jsonl"
    assert main(["--config", str(config), "triage", "--corpus", str(test_path),
                 "--out", str(predicted), "--t2-scope", "predicted"]) == 0
    gold_scope = tmp_path / "gold_scope.jsonl"
    assert main(["--config", str(config), "triage", "--corpus", str(test_path),
                 "--out", str(gold_scope), "--t2-scope", "gold"]) == 0
    capsys.readouterr()

    # gold gating over gold-scoped outcomes evaluates every annotated record
    assert run_evaluate(config, gold_scope, test_path, "t2", tmp_path, "gold") == 0
    doc = json.loads((tmp_path / "eval_t2.json").read_text())
    n_annotated = len(load_corpus(test_path))
    assert doc["n_gold"] == n_annotated
    assert all(m["n_evaluated"] == n_annotated for m in doc["models"])


def test_evaluate_unjoinable_ids_exit_1(tmp_path, capsys):
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2,
                                        miss_a=set(), miss_b=set())
    # drop one outcome line so a gold record has no outcome
    lines = outcomes.read_text().splitlines()
    outcomes.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    code = main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t1", "--out", str(tmp_path)])
    assert code == 1
    assert "E0" in capsys.readouterr().err


def test_evaluate_repeated_report_id_exits_1(tmp_path, capsys):
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2,
                                        miss_a=set(), miss_b=set())
    lines = outcomes.read_text().splitlines()
    outcomes.write_text("\n".join(lines + [lines[2]]) + "\n", encoding="utf-8")
    code = main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t1", "--out", str(tmp_path)])
    assert code == 1
    assert "'E2'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["not JSON", "missing"])
def test_evaluate_reads_its_config_also_with_out(tmp_path, capsys, case):
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2,
                                        miss_a=set(), miss_b=set())
    config = tmp_path / "config.json"
    if case == "not JSON":
        config.write_text("{not json", encoding="utf-8")
    out_dir = tmp_path / "eval"
    assert main(["--config", str(config), "evaluate", "--outcomes", str(outcomes),
                 "--gold", str(gold), "--tier", "t1", "--out", str(out_dir)]) == 1
    line = error_line(capsys)
    if case == "missing":
        assert line == f"error: config file not found: {config}"
    else:
        assert line.startswith(f"error: {config}: ")
    assert not out_dir.exists()


def evaluate_one_outcome_line(tmp_path, line):
    """Evaluate the engineered fixture with its second line (E1's) replaced by `line`."""
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2,
                                        miss_a=set(), miss_b=set())
    lines = outcomes.read_text().splitlines()
    outcomes.write_text("\n".join(lines[:1] + [line] + lines[2:]) + "\n", encoding="utf-8")
    return main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t1", "--out", str(tmp_path)])


def test_evaluate_outcome_line_not_an_object_exits_1(tmp_path, capsys):
    assert evaluate_one_outcome_line(tmp_path, "5") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2: not a JSON object" in err


def test_evaluate_report_id_not_a_string_exits_1(tmp_path, capsys):
    line = '{"report_id":[1],"final":"non_cancer","t1":{}}'
    assert evaluate_one_outcome_line(tmp_path, line) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 2: field 'report_id': expected a string, got an array" in err


MEMBER_B = {"backend_id": "model-b", "label": "cancer"}
MALFORMED_BLOCKS = {
    "t1 not a block": 5,
    "block without members": {"combined": "cancer"},
    "member without backend_id": {"combined": "cancer",
                                  "members": [{"label": "cancer"}, MEMBER_B]},
    "backend_id not a string": {"combined": "cancer",
                                "members": [{"backend_id": ["b"], "label": "cancer"},
                                            MEMBER_B]},
    "label of the other tier": {"combined": "cancer",
                                "members": [{"backend_id": "model-a", "label": "reportable"},
                                            MEMBER_B]},
    "three members": {"combined": "cancer",
                      "members": [{"backend_id": "model-a"}, MEMBER_B, MEMBER_B]},
    "member not an object": {"combined": "cancer", "members": ["model-a", MEMBER_B]},
    "same backend_id": {"combined": "cancer", "combined_by": "or",
                        "members": [{**MEMBER_B, "probability": 0.9, "threshold": 0.5}] * 2},
}


def malformed_line(block):
    return json.dumps({"report_id": "E1", "final": "non_cancer", "t1": block})


# the line, the field and the reason each case's error names
MALFORMED_REASONS = {
    "t1 not a block": "line 2: field 't1': expected an object, got an integer",
    "block without members": "line 2: t1: field 'members': missing required field",
    "member without backend_id":
        "line 2: t1: members[0]: field 'backend_id': missing required field",
    "backend_id not a string":
        "line 2: t1: members[0]: field 'backend_id': expected a string, got an array",
    "label of the other tier":
        "line 2: t1: members[0]: field 'label': expected one of: cancer, non_cancer",
    "three members": "line 2: t1: field 'members': needs exactly two member objects",
    "member not an object": "line 2: t1: field 'members': needs exactly two member objects",
    "same backend_id": "line 2: t1: field 'members': backend_ids are not distinct",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BLOCKS))
def test_evaluate_malformed_tier_block_exits_1(tmp_path, capsys, case):
    assert evaluate_one_outcome_line(tmp_path, malformed_line(MALFORMED_BLOCKS[case])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and MALFORMED_REASONS[case] in err


def test_evaluate_combined_not_the_or_of_members_exits_1(tmp_path, capsys):
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2,
                                        miss_a={0}, miss_b=set())
    lines = outcomes.read_text().splitlines()
    flipped = json.loads(lines[0])
    # member A misses E0 and member B catches it: the ensemble must say cancer
    flipped["t1"]["combined"] = "non_cancer"
    outcomes.write_text("\n".join([json.dumps(flipped)] + lines[1:]) + "\n",
                        encoding="utf-8")
    assert main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 1: t1: field 'combined': not the OR of its members' labels" in err


def edited_outcome(rid, member_a, member_b, edit, tier="t1"):
    """synthetic_outcome_line's outcome after edit(outcome), as a line."""
    outcome = json.loads(synthetic_outcome_line(rid, member_a, member_b, tier))
    edit(outcome)
    return json.dumps(outcome)


def first_t1_member(outcome):
    return outcome["t1"]["members"][0]


# a final other than the one triage derives from the tier blocks
WRONG_FINALS = {
    "t1 negative, not non_cancer": (
        edited_outcome("E1", False, False, lambda o: o.update(final="cancer_non_reportable")),
        "expected non_cancer"),
    "t2 positive, not reportable": (
        edited_outcome("E1", True, False, lambda o: o.update(final="cancer_non_reportable"),
                       tier="t2"),
        "expected cancer_reportable"),
    "t2 absent, not non_reportable": (
        edited_outcome("E1", True, False, lambda o: o.update(final="cancer_reportable")),
        "expected cancer_non_reportable"),
}


@pytest.mark.parametrize("case", sorted(WRONG_FINALS))
def test_evaluate_final_other_than_the_derived_one_exits_1(tmp_path, capsys, case):
    line, reason = WRONG_FINALS[case]
    assert evaluate_one_outcome_line(tmp_path, line) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line 2: field 'final': {reason}" in err


@pytest.mark.parametrize("edits, reason", [
    ({"probability": 0.4}, "field 'label': disagrees with probability >= threshold"),
    ({"threshold": 0.95}, "field 'label': disagrees with probability >= threshold"),
    ({"probability": 1.5}, "field 'probability': not in [0, 1]"),
    ({"probability": "0.9"}, "field 'probability': expected a number, got a string"),
    ({"threshold": 1.0}, "field 'threshold': not in (0, 1)"),
], ids=["probability below", "threshold above", "probability over 1", "probability a string",
        "threshold 1"])
def test_evaluate_member_label_against_its_probability_exits_1(tmp_path, capsys, edits,
                                                                reason):
    # member A says cancer with probability 0.9 at threshold 0.5
    line = edited_outcome("E1", True, False, lambda o: first_t1_member(o).update(edits))
    assert evaluate_one_outcome_line(tmp_path, line) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line 2: t1: members[0]: {reason}" in err


@pytest.mark.parametrize("edits", [{"probability": 1}, {"probability": 0.5}],
                         ids=["integer probability", "probability at threshold"])
def test_evaluate_member_outside_the_common_case_is_accepted(tmp_path, capsys, edits):
    # member A says cancer at threshold 0.5; each edit keeps the line valid
    line = edited_outcome("E1", True, False, lambda o: first_t1_member(o).update(edits))
    assert evaluate_one_outcome_line(tmp_path, line) == 0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def tier_blocks(labels):
    labels = st.sampled_from(labels) | JSON_VALUES
    member = st.fixed_dictionaries({}, optional={
        "backend_id": st.sampled_from(["model-a", "model-b", "combined"]) | JSON_VALUES,
        "label": labels})
    return st.fixed_dictionaries({}, optional={
        "combined": labels,
        "members": st.lists(member, max_size=3) | JSON_VALUES}) | JSON_VALUES


OUTCOME_LINES = st.fixed_dictionaries({}, optional={
    "report_id": st.sampled_from(["E1", "X"]) | JSON_VALUES,
    "final": JSON_VALUES,
    "t1": tier_blocks(["cancer", "non_cancer"]),
    "t2": tier_blocks(["reportable", "non_reportable"]),
}).map(json.dumps) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@given(line=OUTCOME_LINES)
@example(line=synthetic_outcome_line("E1", True, False))
@example(line=malformed_line(MALFORMED_BLOCKS["t1 not a block"]))
@example(line=malformed_line(MALFORMED_BLOCKS["block without members"]))
@example(line=malformed_line(MALFORMED_BLOCKS["member without backend_id"]))
@example(line=malformed_line(MALFORMED_BLOCKS["backend_id not a string"]))
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_evaluate_any_outcome_line_exits_0_or_1_with_an_error_line(tmp_path, capsys, line):
    code = evaluate_one_outcome_line(tmp_path, line)
    err = capsys.readouterr().err
    assert code in (0, 1)
    if code == 1:
        assert err.startswith("error:")


# --- lines the corpus and outcomes loaders cannot read ------------------------

FUZZ_RECORD = {"report_id": "F1", "diagnosis_year": 2023,
               "raw_text": "invasive carcinoma", "t1_label": "cancer"}
UNREADABLE_LINES = {
    "5,000-digit integer": (b"1" * 5000, "integer literal too long"),
    "100,000 [": (b"[" * 100_000, "nested too deeply"),
    "leading 0xff byte": (b"\xff" + json.dumps(FUZZ_RECORD).encode(), "not UTF-8: byte 0xff"),
}
# json.dumps escapes the lone surrogate as \ud800
SURROGATE_LINE = json.dumps({**FUZZ_RECORD, "raw_text": "carcinoma \ud800"}).encode()


def replace_line_2(path, line):
    lines = path.read_bytes().splitlines()
    path.write_bytes(b"\n".join(lines[:1] + [line] + lines[2:]) + b"\n")


@pytest.mark.parametrize("case", sorted(UNREADABLE_LINES))
def test_triage_unreadable_corpus_line_exits_1_naming_it(pipeline, tmp_path, capsys, case):
    _, config, corpus = pipeline
    line, reason = UNREADABLE_LINES[case]
    path = tmp_path / "corpus.jsonl"
    write_corpus(Corpus(corpus.records[:3]), path)
    replace_line_2(path, line)
    assert main(["--config", str(config), "triage", "--corpus", str(path),
                 "--out", str(tmp_path / "outcomes.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: corpus.jsonl: line 2: ") and reason in err


@pytest.mark.parametrize("case", sorted(UNREADABLE_LINES))
def test_evaluate_unreadable_outcome_line_exits_1_naming_it(tmp_path, capsys, case):
    line, reason = UNREADABLE_LINES[case]
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2,
                                        miss_a=set(), miss_b=set())
    replace_line_2(outcomes, line)
    assert main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2: " in err and reason in err


def test_lone_surrogate_in_corpus_exits_1_naming_line_and_field(pipeline, tmp_path, capsys):
    _, config, corpus = pipeline
    path = tmp_path / "corpus.jsonl"
    write_corpus(Corpus(corpus.records[:3]), path)
    replace_line_2(path, SURROGATE_LINE)
    build_config = write_config(tmp_path, corpus=str(path), name="build.json")
    for argv in (["--config", str(config), "triage", "--corpus", str(path),
                  "--out", str(tmp_path / "outcomes.jsonl")],
                 ["--config", str(build_config), "build-dataset", "--tier", "t1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corpus.jsonl: line 2: field 'raw_text': lone surrogate")


@pytest.mark.parametrize("field, value", [("model-a", "model-\\ud800"),
                                          ('"E1"', '"\\uDC00E1"')])
def test_lone_surrogate_in_outcomes_exits_1(tmp_path, capsys, field, value):
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2,
                                        miss_a=set(), miss_b=set())
    line = synthetic_outcome_line("E1", True, True).replace(field, value)
    replace_line_2(outcomes, line.encode())
    assert main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t1", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    where = {"model-a": "t1: members[0]: field 'backend_id'",
             '"E1"': "field 'report_id'"}[field]
    assert f"line 2: {where}: lone surrogate U+" in err


# per string field of an outcome line: the line with that field holding a
# lone surrogate, and where the error must name it
OUTCOME_SURROGATES = {
    "final": (edited_outcome("E1", True, True,
                             lambda o: o.update(final="cancer_non_reportable\ud800")),
              "field 'final'"),
    "member label": (edited_outcome("E1", True, True,
                                    lambda o: first_t1_member(o).update(label="cancer\udc80")),
                     "t1: members[0]: field 'label'"),
    "combined": (edited_outcome("E1", True, True, lambda o: o["t1"].update(combined="\ud800")),
                 "t1: field 'combined'"),
}


@pytest.mark.parametrize("case", sorted(OUTCOME_SURROGATES))
def test_lone_surrogate_in_any_outcome_string_exits_1(tmp_path, capsys, case):
    line, where = OUTCOME_SURROGATES[case]
    assert evaluate_one_outcome_line(tmp_path, line) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"line 2: {where}: lone surrogate U+" in err


# per string field of a corpus record other than raw_text: the record with
# that field holding a lone surrogate, and where the error must name it
CORPUS_SURROGATES = {
    "report_id": ({**FUZZ_RECORD, "report_id": "F\ud800"}, "field 'report_id'"),
    "source_site": ({**FUZZ_RECORD, "source_site": "site_\udc80"}, "field 'source_site'"),
    "section name": ({**FUZZ_RECORD, "sections": [{"name": "diag\ud800", "text": "x"}]},
                     "sections[0]: field 'name'"),
    "section text": ({**FUZZ_RECORD, "sections": [{"name": "diagnosis", "text": "\udfff"}]},
                     "sections[0]: field 'text'"),
    "section header": ({**FUZZ_RECORD, "sections": [
        {"name": "diagnosis", "text": "x", "header": "DIAGNOSIS\ud800:\n"}]},
        "sections[0]: field 'header'"),
    "t1_label": ({**FUZZ_RECORD, "t1_label": "cancer\ud800"}, "field 't1_label'"),
}


@pytest.mark.parametrize("case", sorted(CORPUS_SURROGATES))
def test_lone_surrogate_in_any_corpus_string_exits_1(pipeline, tmp_path, capsys, case):
    _, config, corpus = pipeline
    record, where = CORPUS_SURROGATES[case]
    path = tmp_path / "corpus.jsonl"
    write_corpus(Corpus(corpus.records[:3]), path)
    replace_line_2(path, json.dumps(record).encode())
    build_config = write_config(tmp_path, corpus=str(path), name="build.json")
    for argv in (["--config", str(config), "triage", "--corpus", str(path),
                  "--out", str(tmp_path / "outcomes.jsonl")],
                 ["--config", str(build_config), "build-dataset", "--tier", "t1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: corpus.jsonl: line 2: {where}: lone surrogate U+")


def corpus_text():
    return (st.text(max_size=12) | st.sampled_from(["carcinoma \ud800", "\udc80", "é"])
            | JSON_VALUES)


CORPUS_LINES = st.fixed_dictionaries({
    "report_id": st.sampled_from(["F1", ""]) | JSON_VALUES,
    "diagnosis_year": st.integers(1900, 2100) | JSON_VALUES,
    "raw_text": corpus_text(),
}, optional={
    "source_site": corpus_text(),
    "sections": st.lists(st.fixed_dictionaries({}, optional={
        "name": st.sampled_from(["diagnosis", "Bad Name"]) | corpus_text(),
        "text": corpus_text(), "header": corpus_text()}), max_size=2) | JSON_VALUES,
    "t1_label": st.sampled_from(["cancer", "non_cancer"]) | JSON_VALUES,
    "t2_label": st.sampled_from(["reportable", "non_reportable"]) | JSON_VALUES,
    "extra": JSON_VALUES,
}).map(lambda record: json.dumps(record).encode()) | st.binary(max_size=12)


@given(line=CORPUS_LINES)
@example(line=json.dumps(FUZZ_RECORD).encode())
@example(line=UNREADABLE_LINES["5,000-digit integer"][0])
@example(line=UNREADABLE_LINES["100,000 ["][0])
@example(line=UNREADABLE_LINES["leading 0xff byte"][0])
@example(line=SURROGATE_LINE)
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_corpus_line_exits_0_1_or_2_with_an_error_line(pipeline, tmp_path, capsys, line):
    _, config, _ = pipeline
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(line + b"\n")
    build_config = write_config(tmp_path, corpus=str(path), name="build.json")
    for argv in (["--config", str(config), "triage", "--corpus", str(path),
                  "--out", str(tmp_path / "outcomes.jsonl")],
                 ["--config", str(build_config), "build-dataset", "--tier", "t1"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert any(row.startswith("error:") for row in err.splitlines())


# --- one edited value of a config ----------------------------------------------

def fuzz_config():
    """A small valid config that spells out every optional key of a tier, so
    that each of them can be edited."""
    doc = config_doc(epochs=2, feature_dim=1 << 10)
    for tier, (kept, sampled, ratio) in {"t1": ("cancer", "non_cancer", 0.8),
                                         "t2": ("non_reportable", "reportable", 1.2)}.items():
        doc["tiers"][tier]["undersample"].update(kept_class=kept, sampled_class=sampled,
                                                 ratio=ratio)
        for member in doc["tiers"][tier]["members"]:
            member["fallback_sections"] = ["diagnosis", "specimen"]
    return doc


FUZZ_CONFIG = fuzz_config()
FUZZ_CORPUS = synth_corpus(SynthSpec(n_reports=60, vocabulary_signal_strength=1.0), seed=5)


def key_paths(node, path=()):
    """The path, as a tuple of keys and list indexes, of every value under node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


def value_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


CONFIG_PATHS = list(key_paths(FUZZ_CONFIG))
LEAF_PATHS = [p for p in CONFIG_PATHS if not isinstance(value_at(FUZZ_CONFIG, p), (dict, list))]
# Integers stay small because a config may ask for any amount of work (epochs),
# and text holds no "/" or ".", so that no generated path leads out of tmp_path.
CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000) | st.floats()
    | st.text(st.characters(blacklist_characters="/\\."), max_size=4)
    | st.sampled_from(["\ud800", "a\udc80"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6).map(json.dumps)
# (path, JSON text of the new value), or (path, None) to drop the key
CONFIG_EDITS = (st.tuples(st.sampled_from(LEAF_PATHS), CONFIG_VALUES)
                | st.tuples(st.sampled_from(CONFIG_PATHS), st.none()))
PLACEHOLDER = "\x00placeholder\x00"


def edited_config(path, value_text):
    """FUZZ_CONFIG as JSON text, with the value at path replaced by value_text
    or, when value_text is None, dropped."""
    doc = copy.deepcopy(FUZZ_CONFIG)
    parent = value_at(doc, path[:-1])
    if value_text is None:
        del parent[path[-1]]
        return json.dumps(doc)
    parent[path[-1]] = PLACEHOLDER
    return json.dumps(doc).replace(json.dumps(PLACEHOLDER), value_text)


@given(edit=CONFIG_EDITS)
@example(edit=(("tiers", "t1", "undersample", "ratio"), "NaN"))
@example(edit=(("tiers", "t1", "undersample", "ratio"), "1e400"))
@example(edit=(("tiers", "t1", "train", "l2"), "NaN"))
@example(edit=(("tiers", "t1", "train", "learning_rate"), "1e400"))
@example(edit=(("tiers", "t1", "train", "epochs"), "1" * 5000))
@example(edit=(("tiers", "t1", "train", "epochs"), "[" * 100_000))
@example(edit=(("out_dir",), json.dumps("\ud800")))
@example(edit=(("tiers", "t1", "train", "seed"), "-1"))
@example(edit=(("tiers", "t1", "train", "feature_dim"), str(1 << 40)))
@example(edit=(("tiers", "t1", "split", "seed"), None))
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_config_edit_exits_0_1_or_2_with_an_error_line(tmp_path, capsys, edit):
    shutil.rmtree(tmp_path / "out", ignore_errors=True)
    write_corpus(FUZZ_CORPUS, tmp_path / "corpus.jsonl")
    config = tmp_path / "config.json"
    config.write_text(edited_config(*edit), encoding="utf-8")
    for argv in (["build-dataset", "--tier", "t1"],
                 ["train-baseline", "--tier", "t1", "--variant", "a"]):
        code = main(["--config", str(config), *argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code:
            assert any(row.startswith("error:") for row in err.splitlines())


def test_training_and_triage_read_the_same_member_settings(tmp_path):
    corpus = synth_corpus(SynthSpec(n_reports=200, vocabulary_signal_strength=0.5), seed=3)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    config = write_config(tmp_path, epochs=2, feature_dim=1 << 12)
    doc = json.loads(config.read_text())
    doc["tiers"]["t1"]["members"][0].update(token_budget=40, fallback_sections=["other"])
    config.write_text(json.dumps(doc), encoding="utf-8")
    for tier in ("t1", "t2"):
        assert main(["--config", str(config), "build-dataset", "--tier", tier]) == 0
        for variant in ("a", "b"):
            assert main(["--config", str(config), "train-baseline",
                         "--tier", tier, "--variant", variant]) == 0
    out = tmp_path / "outcomes.jsonl"
    assert main(["--config", str(config), "triage", "--out", str(out)]) == 0

    def member_input(report):
        return assemble_input(report, PipelineVariant.A_SYNOPTIC_FIRST, 40, ("other",))

    model = load_baseline(tmp_path / "out/models/t1_a.bin")
    train = load_corpus(tmp_path / "out/t1/train.jsonl")
    pairs = [(member_input(r.report), int(r.t1_label is T1Label.CANCER)) for r in train]
    save_baseline(train_baseline(pairs, TrainHyper(epochs=2, feature_dim=1 << 12), seed=13),
                  tmp_path / "retrained.bin")
    assert (tmp_path / "retrained.bin").read_bytes() == \
        (tmp_path / "out/models/t1_a.bin").read_bytes()

    inputs = [member_input(r.report) for r in corpus]
    defaults = [assemble_input(r.report, PipelineVariant.A_SYNOPTIC_FIRST) for r in corpus]
    assert inputs != defaults  # the member's settings change what it reads
    outcomes = [json.loads(line) for line in out.read_text().splitlines()]
    assert [o["t1"]["members"][0]["probability"] for o in outcomes] == \
        score_batch(model, model.featurize(inputs))


def test_triage_worker_count_does_not_change_output(pipeline, tmp_path):
    """Triage runs on one thread; a config that still sets workers, to any
    value, loads and triages byte-identically."""
    base, config, _ = pipeline
    test_path = base / "out/t1/test.jsonl"
    plain = tmp_path / "outcomes.jsonl"
    assert main(["--config", str(config), "triage", "--corpus", str(test_path),
                 "--out", str(plain)]) == 0
    for workers in (4, 0):
        config_obj = json.loads((base / "config.json").read_text())
        config_obj["workers"] = workers
        workers_cfg = tmp_path / "config.json"
        workers_cfg.write_text(json.dumps(config_obj), encoding="utf-8")
        out = tmp_path / f"outcomes-{workers}.jsonl"
        assert main(["--config", str(workers_cfg), "--out-dir", str(base / "out"),
                     "triage", "--corpus", str(test_path), "--out", str(out)]) == 0
        assert out.read_bytes() == plain.read_bytes()


MODEL_DAMAGE = {
    "truncated": (lambda raw: raw[:-8], "expected"),
    "wrong magic": (lambda raw: b"XXXX" + raw[4:], "not a baseline model file"),
    "non-finite weights": (lambda raw: raw[:-8] + struct.pack("<d", math.nan),
                           "non-finite weights"),
}


@pytest.mark.parametrize("case", sorted(MODEL_DAMAGE))
def test_triage_corrupt_model_file_exits_1_naming_it(pipeline, tmp_path, capsys, case):
    base, config, _ = pipeline
    damage, reason = MODEL_DAMAGE[case]
    out_dir = tmp_path / "out"
    shutil.copytree(base / "out/models", out_dir / "models")
    model = out_dir / "models/t1_a.bin"
    model.write_bytes(damage(model.read_bytes()))
    assert main(["--config", str(config), "--out-dir", str(out_dir), "triage",
                 "--corpus", str(base / "out/t1/test.jsonl"),
                 "--out", str(tmp_path / "outcomes.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "models/t1_a.bin: " in err and reason in err


def test_triage_sections_raw_only_corpus_with_custom_synonyms(pipeline, tmp_path):
    base, _, _ = pipeline
    # strip stored sections and use a header spelling only the custom table knows
    raw = ("HISTOPATHOLOGICAL CONCLUSION:\ncarcinoma staging\n"
           "SYNOPTIC REPORT:\ncarcinoma staging\n")
    record = {"report_id": "RAW1", "diagnosis_year": 2023, "raw_text": raw}
    corpus_path = tmp_path / "raw.jsonl"
    corpus_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    synonyms = tmp_path / "sections.cfg"
    synonyms.write_text("HISTOPATHOLOGICAL CONCLUSION = diagnosis\n", encoding="utf-8")

    config_obj = json.loads((base / "config.json").read_text())
    config_obj["section_synonyms"] = str(synonyms)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_obj), encoding="utf-8")

    out = tmp_path / "outcomes.jsonl"
    assert main(["--config", str(config_path), "--out-dir", str(base / "out"),
                 "triage", "--corpus", str(corpus_path), "--out", str(out)]) == 0
    outcome = json.loads(out.read_text().splitlines()[0])
    assert outcome["t1"]["combined"] == "cancer"


DIRECTORY = object()
SYNONYMS_DAMAGE = {
    "missing": (None, "error: section synonyms file not found: {path}"),
    "directory": (DIRECTORY, "error: section synonyms path is a directory: {path}"),
    "non-UTF-8 byte": (b"# local\nMICROSCOPIC \xff EXAM = other\n",
                       "error: {path}: line 2: not UTF-8: byte 0xff"),
    "name not normalized": (b"# local\nFINAL DIAGNOSIS = Diagnosis Section\n",
                            "error: {path}: line 2: the section name is not normalized "
                            "(lowercase, one word)"),
    "header normalizes to nothing": (b"(( )) = diagnosis\n",
                                     "error: {path}: line 1: the raw header normalizes to "
                                     "nothing"),
    "no synoptic mapping": (b"synoptic = other\nsynoptic report = other\n"
                            b"synoptic data = other\n",
                            "error: {path}: synonym table lacks a mapping to 'synoptic'"),
}


def synonyms_config(base, tmp_path, content):
    """The pipeline's config with section_synonyms set to a file of content,
    none, or (DIRECTORY) a directory; returns (config path, synonyms path)."""
    synonyms = tmp_path / "sections.cfg"
    if content is DIRECTORY:
        synonyms.mkdir()
    elif content is not None:
        synonyms.write_bytes(content)
    config_obj = json.loads((base / "config.json").read_text())
    config_obj["section_synonyms"] = str(synonyms)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_obj), encoding="utf-8")
    return config_path, synonyms


@pytest.mark.parametrize("command", ["build-dataset", "train-baseline", "triage"])
@pytest.mark.parametrize("case", sorted(SYNONYMS_DAMAGE))
def test_unreadable_synonyms_file_exits_1_naming_it(pipeline, tmp_path, capsys, command,
                                                    case):
    base, _, _ = pipeline
    args = {"build-dataset": ["--tier", "t1"],
            "train-baseline": ["--tier", "t1", "--variant", "a"],
            "triage": ["--corpus", str(base / "corpus.jsonl"),
                       "--out", str(tmp_path / "outcomes.jsonl")]}[command]
    content, message = SYNONYMS_DAMAGE[case]
    config_path, synonyms = synonyms_config(base, tmp_path, content)
    # the failure comes before anything is written to the shared out_dir
    assert main(["--config", str(config_path), "--out-dir", str(base / "out"), command,
                 *args]) == 1
    assert capsys.readouterr().err == message.format(path=synonyms) + "\n"


MILLION = 1_000_000
OVERSIZED_SYNONYMS = {
    "header normalizes to nothing": b"(" * MILLION + b" = diagnosis",
    "name not normalized": b"FINAL DIAGNOSIS = " + b"Diagnosis Section " * (MILLION // 18),
    "no equals sign": b"X" * MILLION,
    "non-UTF-8 byte": b"X" * MILLION + b"\xff",
}


@pytest.mark.parametrize("case", sorted(OVERSIZED_SYNONYMS))
def test_oversized_synonyms_line_exits_1_with_one_short_error_line(pipeline, tmp_path, capsys,
                                                                   case):
    base, _, _ = pipeline
    config_path, synonyms = synonyms_config(base, tmp_path,
                                            b"# local\n" + OVERSIZED_SYNONYMS[case] + b"\n")
    assert main(["--config", str(config_path), "--out-dir", str(base / "out"), "triage",
                 "--corpus", str(base / "corpus.jsonl"),
                 "--out", str(tmp_path / "outcomes.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {synonyms}: line 2: ") and err.endswith("\n")
    assert err.count("\n") == 1 and len(err) < 200


def test_strict_mode_rejects_unknown_corpus_fields(tmp_path, capsys):
    record = {"report_id": "R1", "diagnosis_year": 2023, "raw_text": "x",
              "surprise": True, "t1_label": "cancer"}
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    config = write_config(tmp_path)
    code = main(["--strict", "--config", str(config), "build-dataset", "--tier", "t1"])
    assert code == 1
    assert "surprise" in capsys.readouterr().err


# --- error paths each named in one line -------------------------------------------

def error_line(capsys):
    """The one line a failed command wrote to stderr; there is no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def edited_config_file(tmp_path, edit, **settings):
    """config_doc(**settings) after edit(doc), written to tmp_path/config.json."""
    doc = config_doc(**settings)
    edit(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("index", [0, 1])
def test_member_named_combined_exits_1_naming_it(pipeline, tmp_path, capsys, index):
    # evaluate names the ensemble "combined": a member of that name would
    # triage, and its outcomes could never be evaluated
    base, _, _ = pipeline

    def edit(doc):
        doc["out_dir"] = str(base / "out")
        doc["tiers"]["t1"]["members"][index]["backend_id"] = "combined"

    config = edited_config_file(tmp_path, edit, corpus=str(base / "out/t1/test.jsonl"))
    assert main(["--config", str(config), "triage", "--out", str(tmp_path / "o.jsonl")]) == 1
    assert error_line(capsys) == \
        f"error: tiers.t1.members[{index}]: backend_id must not be 'combined'"
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("combined_by", ["and", "absent", None, ["or"]],
                         ids=["and", "absent", "null", "list"])
def test_evaluate_combined_by_other_than_or_exits_1(tmp_path, capsys, combined_by):
    outcome = json.loads(synthetic_outcome_line("E1", True, False))
    if combined_by == "absent":
        del outcome["t1"]["combined_by"]
    else:
        outcome["t1"]["combined_by"] = combined_by
    assert evaluate_one_outcome_line(tmp_path, json.dumps(outcome)) == 1
    line = error_line(capsys)
    assert line.endswith("line 2: t1: field 'combined_by': expected \"or\"")
    assert "and" not in line.split("line 2:")[1]  # the value is not echoed


def evaluate_t2_fixture(tmp_path, edit_lines, gating):
    """evaluate --tier t2 of the engineered t2 fixture after edit_lines(lines).
    synthetic_outcome_line(rid, False, False) is a predicted-scope line of a
    report tier 1 calls non_cancer: it has no t2 block."""
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2, miss_a=set(),
                                        miss_b=set(), tier="t2")
    lines = edit_lines(outcomes.read_text().splitlines())
    outcomes.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t2", "--gating", gating, "--out", str(tmp_path)])


def test_evaluate_gold_gating_on_a_predicted_scope_file_exits_1(tmp_path, capsys):
    assert evaluate_t2_fixture(
        tmp_path, lambda lines: [synthetic_outcome_line("E0", False, False)] + lines[1:],
        "gold") == 1
    assert error_line(capsys) == (
        "error: unjoinable report_ids (gold t2 records without t2 results, "
        "was triage run with --t2-scope gold?): E0")


def test_evaluate_no_t2_results_under_predicted_gating_exits_1(tmp_path, capsys):
    assert evaluate_t2_fixture(tmp_path,
                               lambda lines: [synthetic_outcome_line(f"E{i}", False, False)
                                              for i in range(5)],
                               "predicted") == 1
    assert error_line(capsys) == "error: no evaluable records remain under predicted gating"


def test_evaluate_t2_of_a_gold_corpus_without_t2_labels_exits_1(tmp_path, capsys):
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2, miss_a=set(), miss_b=set())
    assert main(["evaluate", "--outcomes", str(outcomes), "--gold", str(gold),
                 "--tier", "t2", "--out", str(tmp_path)]) == 1
    assert error_line(capsys) == "error: gold corpus has no t2 labels"


@pytest.mark.parametrize("backend_id, reason", [
    ("combined", "outcome 'E1': a member's backend_id is 'combined'"),
    ("model-x", "outcomes file is inconsistent: model 'model-a' appears in 4 of 5 "
                "evaluated records"),
], ids=["combined", "renamed"])
def test_evaluate_member_names_that_do_not_hold_exits_1(tmp_path, capsys, backend_id, reason):
    # a file triage did not write: a member named as the ensemble, or one
    # line whose first member has another name than the other lines'
    line = edited_outcome("E1", True, True,
                          lambda o: o["t1"]["members"][0].update(backend_id=backend_id))
    assert evaluate_one_outcome_line(tmp_path, line) == 1
    assert error_line(capsys) == f"error: {reason}"


def test_build_dataset_without_a_corpus_exits_1(tmp_path, capsys):
    config = edited_config_file(tmp_path, lambda doc: doc.pop("corpus"))
    assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
    assert error_line(capsys) == \
        "error: no corpus given: pass --corpus or set 'corpus' in the config"


def test_triage_without_a_corpus_exits_1_before_loading_models(tmp_path, capsys):
    # no model file exists either: the missing corpus is named first
    config = edited_config_file(tmp_path, lambda doc: doc.pop("corpus"))
    assert not (tmp_path / "models").exists()
    assert main(["--config", str(config), "triage"]) == 1
    assert error_line(capsys) == \
        "error: no corpus given: pass --corpus or set 'corpus' in the config"


def test_triage_remote_member_without_an_endpoint_exits_1(tmp_path, capsys, monkeypatch):
    for variable in ("TRIAGE_REMOTE_ENDPOINT_T1", "TRIAGE_REMOTE_ENDPOINT_T2"):
        monkeypatch.delenv(variable, raising=False)
    config = write_config(tmp_path, remote_kind=True)
    assert main(["--config", str(config), "triage"]) == 1
    assert error_line(capsys) == (
        "error: member 't1-baseline-a' is remote but no endpoint is configured for t1 "
        "(config remote.endpoints or TRIAGE_REMOTE_ENDPOINT_*)")


def test_train_baseline_of_a_remote_member_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, remote_kind=True)
    assert main(["--config", str(config), "train-baseline", "--tier", "t2",
                 "--variant", "b"]) == 1
    assert error_line(capsys) == "error: member 't2-baseline-b' is remote, not native_baseline"


def test_triage_gold_scope_without_t2_labels_exits_1(pipeline, tmp_path, capsys):
    base, config, corpus = pipeline
    unlabeled = tmp_path / "no_t2.jsonl"
    write_corpus(Corpus(records=[replace(r, t2_label=None) for r in corpus]), unlabeled)
    assert main(["--config", str(config), "triage", "--corpus", str(unlabeled),
                 "--t2-scope", "gold", "--out", str(tmp_path / "o.jsonl")]) == 1
    assert error_line(capsys) == "error: --t2-scope gold requires t2 labels in the input corpus"


def test_train_baseline_on_an_unlabeled_record_exits_1(tmp_path, capsys):
    config = write_config(tmp_path)
    records = [LabeledReport(PathologyReport(f"L{i}", 2023, "DIAGNOSIS:\nx\n"),
                             T1Label.CANCER if i else T1Label.NON_CANCER) for i in range(3)]
    records.insert(2, LabeledReport(PathologyReport("U1", 2023, "DIAGNOSIS:\ny\n")))
    write_corpus(Corpus(records=records), tmp_path / "out/t1/train.jsonl")
    assert main(["--config", str(config), "train-baseline", "--tier", "t1",
                 "--variant", "a"]) == 1
    assert error_line(capsys) == "error: record 'U1' has no t1 label"
    assert not (tmp_path / "out/models").exists()


def test_evaluate_writes_to_the_config_out_dir_else_the_working_directory(
        tmp_path, capsys, monkeypatch):
    gold, outcomes = engineered_fixture(tmp_path, n_pos=3, n_neg=2, miss_a=set(), miss_b=set())
    evaluate = ["evaluate", "--outcomes", str(outcomes), "--gold", str(gold), "--tier", "t1"]
    config = write_config(tmp_path)
    assert main(["--config", str(config), *evaluate]) == 0
    written = {p.name for p in (tmp_path / "out").iterdir()}
    assert written == {"eval_t1.json", "eval_t1.txt"}
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(evaluate) == 0
    assert {p.name for p in cwd.iterdir()} == written
    assert (cwd / "eval_t1.json").read_bytes() == (tmp_path / "out/eval_t1.json").read_bytes()


def test_config_file_missing_not_an_object_or_without_tiers_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    for doc, reason in ((None, f"config file not found: {config}"),
                        ([config_doc()], f"{config}: config must be a JSON object"),
                        ({**config_doc(), "tiers": {}}, f"{config}: config defines no tiers")):
        if doc is not None:
            config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--config", str(config), "build-dataset", "--tier", "t1"]) == 1
        assert error_line(capsys) == f"error: {reason}"


def test_triage_with_a_config_of_tier_1_only_exits_1(pipeline, tmp_path, capsys):
    base, _, _ = pipeline
    config = edited_config_file(tmp_path, lambda doc: doc["tiers"].pop("t2"),
                                corpus=str(base / "out/t1/test.jsonl"))
    assert main(["--config", str(config), "--out-dir", str(base / "out"), "triage",
                 "--out", str(tmp_path / "o.jsonl")]) == 1
    assert error_line(capsys) == "error: config has no settings for tier 't2'"


def test_triage_model_file_shorter_than_its_header_exits_1(pipeline, tmp_path, capsys):
    base, config, _ = pipeline
    out_dir = tmp_path / "out"
    shutil.copytree(base / "out/models", out_dir / "models")
    model = out_dir / "models/t2_b.bin"
    model.write_bytes(model.read_bytes()[:10])
    assert main(["--config", str(config), "--out-dir", str(out_dir), "triage",
                 "--corpus", str(base / "out/t1/test.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")]) == 1
    assert error_line(capsys) == f"error: {model}: truncated model file"


def test_failed_replace_exits_2_and_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    def failing_replace(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    out_dir = tmp_path / "data"
    out_dir.mkdir()
    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["synth", "--n", "5", "--seed", "1", "--out", str(out_dir / "c.jsonl")]) == 2
    assert error_line(capsys) == f"error: [Errno 13] Permission denied: '{out_dir / 'c.jsonl'}'"
    assert list(out_dir.iterdir()) == []


# --- reruns in separate processes ---------------------------------------------------

# synth, both datasets, the four members, triage in both scopes, then both
# evaluations, each through cli.main, in one process; paths are relative
PIPELINE_SCRIPT = """
import sys
from reportable_triage.cli import main

config = ["--config", "config.json"]
commands = [
    ["synth", "--n", "300", "--seed", "4", "--signal", "0.5", "--out", "corpus.jsonl"],
    *([*config, "build-dataset", "--tier", t] for t in ("t1", "t2")),
    *([*config, "train-baseline", "--tier", t, "--variant", v] for t in ("t1", "t2")
      for v in ("a", "b")),
    [*config, "triage", "--corpus", "out/t1/test.jsonl", "--out", "out/predicted.jsonl"],
    [*config, "triage", "--corpus", "out/t2/test.jsonl", "--t2-scope", "gold",
     "--out", "out/gold.jsonl"],
    [*config, "evaluate", "--outcomes", "out/predicted.jsonl", "--gold", "out/t1/test.jsonl",
     "--tier", "t1", "--out", "out/eval_predicted"],
    [*config, "evaluate", "--outcomes", "out/gold.jsonl", "--gold", "out/t2/test.jsonl",
     "--tier", "t2", "--gating", "gold", "--out", "out/eval_gold"],
]
for argv in commands:
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""


def test_reruns_in_processes_of_other_hash_seeds_write_the_same_bytes(tmp_path):
    runs = []
    for hash_seed in ("0", "1"):
        work = tmp_path / f"hash_seed_{hash_seed}"
        work.mkdir()
        write_config(work, epochs=2, feature_dim=1 << 14)
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", PIPELINE_SCRIPT], env=env, cwd=work,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        files = {p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*"))
                 if p.is_file()}
        runs.append((done.stdout.replace(str(work), "<work>"), files))  # out_dir is absolute
    (stdout_0, files_0), (stdout_1, files_1) = runs
    assert len(files_0) == 18  # config, corpus, 2 x 3 dataset files, 4 models, 2 outcomes, 4 evals
    assert files_0.keys() == files_1.keys()
    assert [name for name in files_0 if files_0[name] != files_1[name]] == []
    assert stdout_0 == stdout_1
