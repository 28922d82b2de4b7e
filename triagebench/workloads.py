"""Workload definitions and their set-up: corpora, configs, scoring service.

All inputs come from the workload seed. The training corpus and the held-out
corpus are two `synth` corpora drawn with seeds derived from it; the split,
undersampling and training seeds in the config are fixed, so a seed changes
the reports and nothing else.
"""

from __future__ import annotations

import http.client
import json
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from reportable_triage.corpus import Corpus, SynthSpec, synth_corpus, write_corpus

TIERS = ("t1", "t2")
VARIANTS = ("a", "b")
TOKEN_BUDGET = 512
EPOCHS = 5
TRAIN_FRACTION = 0.8
# (kept class, sampled class, ratio) per tier: the program's default policies
UNDERSAMPLE = {"t1": ("cancer", "non_cancer", 0.8), "t2": ("non_reportable", "reportable", 1.2)}

# Words for the long trailing sections of long_raw reports: 400 histology-like
# compounds, none of them class vocabulary of the synthetic corpus, so these
# sections carry no signal. A vocabulary this size keeps per-word counts near
# those of real prose; a few dozen words repeated hundreds of times give counts
# large enough to make the baseline's SGD collapse to one class.
_PREFIXES = ("histo", "cyto", "fibro", "epi", "endo", "peri", "myo", "neo", "para", "meso",
             "lympho", "angio", "chondro", "osteo", "dermo", "hemo", "glyco", "karyo",
             "leuko", "muco")
_SUFFIXES = ("cyte", "blast", "plasia", "oid", "itis", "genic", "trophic", "morph",
             "stromal", "cellular", "nuclear", "vascular", "fibrillar", "granular",
             "tubular", "lobular", "ductal", "basal", "apical", "focal")
_LONG_WORDS = tuple(a + b for a in _PREFIXES for b in _SUFFIXES)
_LONG_SECTIONS = ("MICROSCOPIC DESCRIPTION:\n", "COMMENT:\n", "ADDENDUM:\n")
_LONG_WORDS_PER_SECTION = (300, 420)
_WORDS_PER_LINE = 12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_train: int
    n_held: int
    signal: float
    learning_rate: float = 0.2
    long_raw: bool = False
    remote: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("sectioned_batch",
                 "short pre-sectioned reports scored locally: hashing, input assembly "
                 "and SGD do the work, the sectioner none",
                 n_train=5000, n_held=5000, signal=0.5),
        Workload("long_raw",
                 "raw-text reports of over a thousand words: sectioner, normalize_text, "
                 "truncation and large corpus JSON do the work",
                 n_train=600, n_held=400, signal=1.0, learning_rate=0.05,
                 long_raw=True),
        Workload("remote_hosted",
                 "sectioned_batch corpora with all four triage members remote on a "
                 "loopback service: triage waits on the scoring service",
                 n_train=5000, n_held=5000, signal=0.5, remote=True),
    )
}


def corpus_seeds(seed: int) -> tuple[int, int]:
    return 1000 * seed + 1, 1000 * seed + 2


def _lengthen(corpus: Corpus, seed: int) -> Corpus:
    """Raw text only, with three long trailing sections past the token budget."""
    rng = random.Random(seed)
    records = []
    for rec in corpus.records:
        parts = [rec.report.raw_text]
        for header in _LONG_SECTIONS:
            words = [rng.choice(_LONG_WORDS)
                     for _ in range(rng.randint(*_LONG_WORDS_PER_SECTION))]
            parts.append(header)
            parts.extend(" ".join(words[i:i + _WORDS_PER_LINE]) + "\n"
                         for i in range(0, len(words), _WORDS_PER_LINE))
        report = replace(rec.report, raw_text="".join(parts), sections=())
        records.append(replace(rec, report=report))
    return Corpus(records=records, provenance=corpus.provenance)


def make_corpus(w: Workload, n: int, seed: int) -> Corpus:
    corpus = synth_corpus(SynthSpec(n_reports=n, vocabulary_signal_strength=w.signal), seed)
    return _lengthen(corpus, seed) if w.long_raw else corpus


def _member(tier: str, variant: str, kind: str) -> dict:
    member = {"backend_id": f"{tier}-{variant}-{'remote' if kind == 'remote' else 'baseline'}",
              "kind": kind, "variant": variant, "threshold": 0.5,
              "token_budget": TOKEN_BUDGET}
    if kind == "native_baseline":
        member["model_path"] = f"models/{tier}_{variant}.bin"
    return member


def make_config(w: Workload, train_corpus: Path, kind: str,
                endpoint: Optional[str] = None) -> dict:
    tiers = {}
    for i, tier in enumerate(TIERS):
        kept, sampled, ratio = UNDERSAMPLE[tier]
        tiers[tier] = {
            "split": {"train_fraction": TRAIN_FRACTION, "seed": 11 + 10 * i,
                      "stratified": True},
            "undersample": {"kept_class": kept, "sampled_class": sampled,
                            "ratio": ratio, "seed": 12 + 10 * i},
            "train": {"epochs": EPOCHS, "learning_rate": w.learning_rate, "feature_dim": 1 << 18,
                      "l2": 1e-6, "seed": 13 + 10 * i},
            "members": [_member(tier, v, kind) for v in VARIANTS],
        }
    cfg = {"out_dir": "run", "corpus": str(train_corpus), "workers": 1, "tiers": tiers}
    if endpoint is not None:
        cfg["remote"] = {"timeout": 10.0, "max_retries": 2,
                         "endpoints": {t: endpoint for t in TIERS}}
    return cfg


class Service:
    """The scoring service process of the remote_hosted workload."""

    def __init__(self, script: Path):
        self.proc = subprocess.Popen([sys.executable, str(script)], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"scoring service did not start: {line!r}")
        self.port = int(line.split()[1])
        self.endpoint = f"http://127.0.0.1:{self.port}"

    def _post(self, path: str, doc: dict) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("POST", path, body=json.dumps(doc).encode("utf-8"),
                         headers={"content-type": "application/json"})
            resp = conn.getresponse()
            body = resp.read()
            if resp.status != 200:
                raise RuntimeError(f"service {path}: status {resp.status}")
            return json.loads(body)
        finally:
            conn.close()

    def load(self, model_paths: dict[str, Path]) -> None:
        self._post("/load", {t: str(p) for t, p in model_paths.items()})

    def drain(self) -> dict:
        return self._post("/drain", {})

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


@dataclass
class Setup:
    work: Path
    train_corpus: Path
    held_corpus: Path
    config: Path          # native baseline members: build-dataset, train-baseline
    triage_config: Path   # the config triage runs with
    service: Optional[Service] = None

    @property
    def run_dir(self) -> Path:
        return self.work / "run"

    def model_path(self, tier: str, variant: str) -> Path:
        return self.run_dir / "models" / f"{tier}_{variant}.bin"


def set_up(w: Workload, seed: int, work: Path, service_script: Path) -> Setup:
    """Generate and write both corpora and the configs; start the service."""
    work.mkdir(parents=True, exist_ok=True)
    train_seed, held_seed = corpus_seeds(seed)
    train_path, held_path = work / "train_corpus.jsonl", work / "held_out.jsonl"
    write_corpus(make_corpus(w, w.n_train, train_seed), train_path)
    write_corpus(make_corpus(w, w.n_held, held_seed), held_path)

    config = work / "config.json"
    config.write_text(json.dumps(make_config(w, train_path, "native_baseline"), indent=2))
    setup = Setup(work=work, train_corpus=train_path, held_corpus=held_path,
                  config=config, triage_config=config)
    if w.remote:
        setup.service = Service(service_script)
        setup.triage_config = work / "remote_config.json"
        setup.triage_config.write_text(json.dumps(
            make_config(w, train_path, "remote", setup.service.endpoint), indent=2))
    return setup
