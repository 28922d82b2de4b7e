"""Declarative run configuration for the command-line pipeline.

One JSON document drives every command; the only environment overrides are
the remote endpoints (TRIAGE_REMOTE_ENDPOINT_T1 / TRIAGE_REMOTE_ENDPOINT_T2),
so secrets and machine-local addresses stay out of committed files.

Example:

    {
      "out_dir": "run",
      "corpus": "corpus.jsonl",
      "tiers": {
        "t1": {
          "split": {"train_fraction": 0.8, "seed": 11, "stratified": true},
          "undersample": {"ratio": 0.8, "seed": 12},
          "train": {"epochs": 5, "learning_rate": 0.2,
                    "feature_dim": 262144, "l2": 1e-06, "seed": 13},
          "members": [
            {"backend_id": "synoptic-baseline", "kind": "native_baseline",
             "variant": "a", "threshold": 0.5, "token_budget": 512,
             "model_path": "models/t1_a.bin"},
            {"backend_id": "diagnosis-baseline", "kind": "native_baseline",
             "variant": "b", "threshold": 0.5, "token_budget": 512,
             "model_path": "models/t1_b.bin"}
          ]
        },
        "t2": { ... same shape ... }
      },
      "remote": {"timeout": 10.0, "max_retries": 2,
                 "endpoints": {"t1": null, "t2": null}}
    }

Relative paths resolve against the config file's directory (out_dir, corpus,
section_synonyms), except a member's model_path, which resolves against
out_dir; a native_baseline member must have one. The synonyms file is read
when the config loads. Seeds are mandatory wherever randomness exists; there
are no wall-clock defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence
from urllib.parse import urlsplit

from .backend.baseline import TrainHyper
from .backend.remote import DEFAULT_MAX_RETRIES, DEFAULT_TIMEOUT
from .corpus import Tier, is_normalized_section_name
from .errors import ValidationError
from .preprocess import DEFAULT_FALLBACK_SECTIONS, DEFAULT_TOKEN_BUDGET, PipelineVariant
from .sampler import SplitSpec, UndersamplePolicy, default_policy
from .sectioner import SectionSynonymTable, default_synonym_table, load_synonym_table
from .util import REQUIRED, open_json, parse_json, read_field

ENV_ENDPOINT = {Tier.T1: "TRIAGE_REMOTE_ENDPOINT_T1", Tier.T2: "TRIAGE_REMOTE_ENDPOINT_T2"}


@dataclass(frozen=True)
class MemberConfig:
    backend_id: str
    kind: str  # "native_baseline" | "remote"
    variant: PipelineVariant
    threshold: float = 0.5
    token_budget: int = DEFAULT_TOKEN_BUDGET
    fallback_sections: tuple[str, ...] = DEFAULT_FALLBACK_SECTIONS
    model_path: Optional[str] = None


@dataclass(frozen=True)
class TierSettings:
    task: Tier
    split: SplitSpec
    policy: UndersamplePolicy
    train: TrainHyper
    train_seed: int
    members: tuple[MemberConfig, MemberConfig]


@dataclass(frozen=True)
class RemoteSettings:
    timeout: float = DEFAULT_TIMEOUT
    max_retries: int = DEFAULT_MAX_RETRIES
    endpoints: dict = field(default_factory=dict)

    def endpoint_for(self, task: Tier) -> Optional[str]:
        env = os.environ.get(ENV_ENDPOINT[task])
        if env:
            return check_endpoint(env, f"environment variable {ENV_ENDPOINT[task]}")
        return self.endpoints.get(task.value)


def check_endpoint(url: str, where: str) -> str:
    """url, if it is an http or https URL with a host, a valid port, and no
    query or fragment.

    Checked when the endpoint is read, so that a malformed one is a
    configuration error naming where it came from, not a failed request.
    """
    try:
        parts = urlsplit(url)
        port = parts.port  # ValueError unless absent or a number in 0-65535
    except ValueError:
        parts, port = None, 0
    if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
            or port == 0):
        # named, not echoed: an endpoint can be megabytes long
        raise ValidationError(f"{where}: not an http(s) URL with a host")
    if "?" in url or "#" in url:
        # either starts a query or a fragment, even an empty one, and
        # /v1/classify must follow the endpoint's path
        raise ValidationError(f"{where}: has a query or a fragment")
    return url


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    corpus_path: Optional[Path]
    tiers: dict[Tier, TierSettings]
    remote: RemoteSettings
    synonyms: SectionSynonymTable

    def tier(self, task: Tier) -> TierSettings:
        if task not in self.tiers:
            raise ValidationError(f"config has no settings for tier {task.value!r}")
        return self.tiers[task]

    def model_file(self, member: MemberConfig) -> Path:
        """A native member's model file; load_run_config requires its model_path."""
        path = Path(member.model_path)  # type: ignore[arg-type]
        return path if path.is_absolute() else self.out_dir / path

    def dataset_dir(self, task: Tier) -> Path:
        return self.out_dir / task.value


# an unknown key longer than this is named by its length, not echoed
MAX_SHOWN_KEY = 64


class _Reader:
    """One object of the config, its key path and the keys read from it so
    far: the keys an object accepts are the keys its parser reads, so there is
    no second list of them to keep. Every error about the object is named
    after its key path."""

    def __init__(self, obj: dict, where: str):
        self.obj = obj
        self.where = where
        self.read: set = set()

    def field(self, key: str, kind: type, default=REQUIRED):
        """obj[key] as kind, by read_field; default when the key is absent."""
        self.read.add(key)
        return read_field(self.obj, key, kind, self.where, default)

    def present(self, **kinds: type):
        """(key, value) for each key of kinds the object holds, read as its
        kind only when the caller takes it, so that reads and checks keep
        their order. As keyword arguments to a dataclass, these leave every
        absent key to the default the dataclass declares."""
        for key, kind in kinds.items():
            if key in self.obj:
                yield key, self.field(key, kind)

    def sub(self, key: str, where: str, default=REQUIRED) -> "_Reader":
        """The object at key, whose key path is where."""
        return _Reader(self.field(key, dict, default), where)

    def build(self, make, *args, **kwargs):
        """make(*args, **kwargs); a rule the made object checks itself is
        named after the key path."""
        try:
            return make(*args, **kwargs)
        except ValidationError as exc:
            raise ValidationError(f"{self.where}: {exc}") from None

    def check(self) -> None:
        """Once the object is parsed, the first key nothing read is an error."""
        for key in self.obj:
            if key not in self.read:
                shown = repr(key) if len(key) <= MAX_SHOWN_KEY else f"of {len(key)} characters"
                raise ValidationError(f"{self.where}: unknown key {shown}")


def check_members(members: Sequence[MemberConfig], where: str) -> None:
    """A tier has exactly two members, variants A and B, with distinct
    backend_ids, and each member's threshold is in (0, 1). No member is named
    'combined': evaluate names the ensemble so, beside its members."""
    for i, member in enumerate(members):
        if not 0.0 < member.threshold < 1.0:
            raise ValidationError(f"{where}.members[{i}]: threshold must be in (0, 1)")
        if member.backend_id == "combined":
            raise ValidationError(f"{where}.members[{i}]: backend_id must not be 'combined'")
    if len(members) != 2:
        raise ValidationError(f"{where}: exactly two members are required per tier")
    if {m.variant for m in members} != set(PipelineVariant):
        raise ValidationError(f"{where}: members must cover variants A and B exactly")
    if members[0].backend_id == members[1].backend_id:
        raise ValidationError(f"{where}: member backend_ids must be distinct")


def _parse_member(member: object, where: str) -> MemberConfig:
    if not isinstance(member, dict):
        raise ValidationError(f"{where}: member must be an object")
    obj = _Reader(member, where)
    kind = obj.field("kind", str)
    if kind not in ("native_baseline", "remote"):
        # named like a read_field error, without echoing the value
        raise ValidationError(f"{where}: field 'kind': expected one of: native_baseline, remote")
    settings = dict(obj.present(threshold=float, token_budget=int, fallback_sections=list))
    if "fallback_sections" in settings:
        fallback = settings["fallback_sections"]
        if not all(isinstance(s, str) and is_normalized_section_name(s) for s in fallback):
            raise ValidationError(
                f"{where}: fallback_sections must be a list of normalized section names"
            )
        settings["fallback_sections"] = tuple(fallback)
    variant = obj.field("variant", str)
    try:
        variant = PipelineVariant.parse(variant)
    except ValidationError:  # named like a read_field error, without echoing the value
        raise ValidationError(f"{where}: field 'variant': expected one of: a, b") from None
    member = MemberConfig(
        backend_id=obj.field("backend_id", str),
        kind=kind,
        variant=variant,
        # a native member trains into and scores from its model file
        model_path=obj.field("model_path", str, None if kind == "remote" else REQUIRED),
        **settings,
    )
    if member.token_budget <= 0:
        raise ValidationError(f"{where}: token_budget must be positive")
    obj.check()
    return member


def _parse_tier(task: Tier, obj: _Reader) -> TierSettings:
    split_obj = obj.sub("split", f"{obj.where}.split")
    split = split_obj.build(SplitSpec, seed=split_obj.field("seed", int),
                            **dict(split_obj.present(train_fraction=float, stratified=bool)))
    split_obj.check()

    under_obj = obj.sub("undersample", f"{obj.where}.undersample")
    under_seed = under_obj.field("seed", int)
    classes = {key: task.parse_label(value, under_obj.where, key)
               for key, value in under_obj.present(kept_class=str, sampled_class=str)}
    policy = under_obj.build(replace, default_policy(task, under_seed), **classes,
                             **dict(under_obj.present(ratio=float)))
    under_obj.check()

    train_obj = obj.sub("train", f"{obj.where}.train")
    hyper = train_obj.build(TrainHyper, **dict(train_obj.present(
        epochs=int, learning_rate=float, feature_dim=int, l2=float)))
    train_seed = train_obj.field("seed", int)
    if not 0 <= train_seed < 1 << 63:  # the model file stores it as a signed 64-bit integer
        raise ValidationError(f"{train_obj.where}: seed must be in [0, 2^63)")
    train_obj.check()

    members = tuple(
        _parse_member(m, f"{obj.where}.members[{i}]")
        for i, m in enumerate(obj.field("members", list))
    )
    check_members(members, obj.where)
    obj.check()
    return TierSettings(task=task, split=split, policy=policy, train=hyper,
                        train_seed=train_seed, members=members)  # type: ignore[arg-type]


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open_json(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except IsADirectoryError:
        raise ValidationError(f"config path is a directory: {path}") from None
    try:
        obj = parse_json(text)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: config must be a JSON object")

    base_dir = path.resolve().parent
    obj = _Reader(obj, str(path))
    obj.read.add("workers")  # accepted, and ignored: older configs set it

    def resolve(raw: Optional[str]) -> Optional[Path]:
        if raw is None:
            return None
        p = Path(raw)
        return p if p.is_absolute() else base_dir / p

    out_dir = resolve(obj.field("out_dir", str))
    corpus_path = resolve(obj.field("corpus", str, None))
    synonyms_path = resolve(obj.field("section_synonyms", str, None))

    tiers_obj = obj.sub("tiers", "tiers")
    tiers: dict[Tier, TierSettings] = {}
    for key, tier_obj in tiers_obj.present(t1=dict, t2=dict):
        tiers[Tier(key)] = _parse_tier(Tier(key), _Reader(tier_obj, f"tiers.{key}"))
    tiers_obj.check()
    if not tiers:
        raise ValidationError(f"{path}: config defines no tiers")

    remote_obj = obj.sub("remote", "remote", {})
    endpoints = remote_obj.sub("endpoints", "remote.endpoints", {})
    for tier in (Tier.T1, Tier.T2):
        url = endpoints.field(tier.value, str, None)
        if url is not None:
            check_endpoint(url, f"{endpoints.where}: field {tier.value!r}")
    endpoints.check()
    remote = RemoteSettings(endpoints=dict(endpoints.obj),
                            **dict(remote_obj.present(timeout=float, max_retries=int)))
    remote_obj.check()
    if remote.timeout <= 0:
        raise ValidationError(f"{remote_obj.where}: field 'timeout': must be positive")
    if remote.max_retries < 0:
        raise ValidationError(f"{remote_obj.where}: field 'max_retries': must not be negative")

    obj.check()
    # read once the document is whole, so that its own faults are named first
    synonyms = (default_synonym_table() if synonyms_path is None
                else load_synonym_table(synonyms_path))
    return RunConfig(out_dir=out_dir, corpus_path=corpus_path, tiers=tiers, remote=remote,
                     synonyms=synonyms)
