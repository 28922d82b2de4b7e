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

Relative paths (corpus, model_path) resolve against out_dir's parent-free
base: corpus relative to the config file location, model paths relative to
out_dir. Seeds are mandatory wherever randomness exists; there are no
wall-clock defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
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
from .util import open_json, parse_json, read_field

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
    section_synonyms_path: Optional[Path] = None

    def synonym_table(self) -> SectionSynonymTable:
        if self.section_synonyms_path is None:
            return default_synonym_table()
        return load_synonym_table(self.section_synonyms_path)

    def tier(self, task: Tier) -> TierSettings:
        if task not in self.tiers:
            raise ValidationError(f"config has no settings for tier {task.value!r}")
        return self.tiers[task]

    def model_file(self, member: MemberConfig) -> Path:
        if member.model_path is None:
            raise ValidationError(
                f"member {member.backend_id!r} is native_baseline but has no model_path"
            )
        path = Path(member.model_path)
        return path if path.is_absolute() else self.out_dir / path

    def dataset_dir(self, task: Tier) -> Path:
        return self.out_dir / task.value


# an unknown key longer than this is named by its length, not echoed
MAX_SHOWN_KEY = 64


class _Keys(dict):
    """A config object that records the keys its parser reads, by read_field,
    _present or `in`: the keys an object accepts are the keys its parser
    reads, so there is no second list of them to keep."""

    def __init__(self, obj: dict):
        super().__init__(obj)
        self.read: set = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)

    def check(self, where: str) -> None:
        """Once the object is parsed, the first key nothing read is an error."""
        for key in self:
            if key not in self.read:
                shown = repr(key) if len(key) <= MAX_SHOWN_KEY else f"of {len(key)} characters"
                raise ValidationError(f"{where}: unknown key {shown}")


def _present(obj: dict, where: str, **kinds: type) -> dict:
    """Each key of kinds that obj holds, read as its kind by read_field.

    Passed as keyword arguments to a dataclass, this leaves every absent key
    to the default the dataclass declares.
    """
    return {key: read_field(obj, key, kind, where) for key, kind in kinds.items() if key in obj}


def _build(make, where: str, **kwargs):
    """make(**kwargs); a rule the object checks itself is named after where,
    the object's key path in the config."""
    try:
        return make(**kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def check_members(members: Sequence[MemberConfig], where: str) -> None:
    """A tier has exactly two members, variants A and B, with distinct
    backend_ids, and each member's threshold is in (0, 1)."""
    for i, member in enumerate(members):
        if not 0.0 < member.threshold < 1.0:
            raise ValidationError(f"{where}.members[{i}]: threshold must be in (0, 1)")
    if len(members) != 2:
        raise ValidationError(f"{where}: exactly two members are required per tier")
    if {m.variant for m in members} != set(PipelineVariant):
        raise ValidationError(f"{where}: members must cover variants A and B exactly")
    if members[0].backend_id == members[1].backend_id:
        raise ValidationError(f"{where}: member backend_ids must be distinct")


def _parse_member(obj: dict, where: str) -> MemberConfig:
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: member must be an object")
    obj = _Keys(obj)
    kind = read_field(obj, "kind", str, where)
    if kind not in ("native_baseline", "remote"):
        # named like a read_field error, without echoing the value
        raise ValidationError(f"{where}: field 'kind': expected one of: native_baseline, remote")
    settings = _present(obj, where, threshold=float, token_budget=int, fallback_sections=list)
    if "fallback_sections" in settings:
        fallback = settings["fallback_sections"]
        if not all(isinstance(s, str) and is_normalized_section_name(s) for s in fallback):
            raise ValidationError(
                f"{where}: fallback_sections must be a list of normalized section names"
            )
        settings["fallback_sections"] = tuple(fallback)
    variant = read_field(obj, "variant", str, where)
    try:
        variant = PipelineVariant.parse(variant)
    except ValidationError:  # named like a read_field error, without echoing the value
        raise ValidationError(f"{where}: field 'variant': expected one of: a, b") from None
    member = MemberConfig(
        backend_id=read_field(obj, "backend_id", str, where),
        kind=kind,
        variant=variant,
        model_path=read_field(obj, "model_path", str, where, None),
        **settings,
    )
    if member.token_budget <= 0:
        raise ValidationError(f"{where}: token_budget must be positive")
    obj.check(where)
    return member


def _parse_tier(task: Tier, obj: dict, where: str) -> TierSettings:
    obj = _Keys(obj)
    split_where = f"{where}.split"
    split_obj = _Keys(read_field(obj, "split", dict, where))
    split = _build(SplitSpec, split_where, seed=read_field(split_obj, "seed", int, split_where),
                   **_present(split_obj, split_where, train_fraction=float, stratified=bool))
    split_obj.check(split_where)

    under_where = f"{where}.undersample"
    under_obj = _Keys(read_field(obj, "undersample", dict, where))
    under_seed = read_field(under_obj, "seed", int, under_where)
    base_policy = default_policy(task, under_seed)
    classes = {key: task.parse_label(read_field(under_obj, key, str, under_where,
                                                getattr(base_policy, key).value),
                                     under_where, key)
               for key in ("kept_class", "sampled_class")}
    policy = _build(
        UndersamplePolicy, under_where,
        task=task,
        **classes,
        ratio=read_field(under_obj, "ratio", float, under_where, base_policy.ratio),
        seed=under_seed,
    )
    under_obj.check(under_where)

    train_where = f"{where}.train"
    train_obj = _Keys(read_field(obj, "train", dict, where))
    hyper = _build(TrainHyper, train_where,
                   **_present(train_obj, train_where, epochs=int, learning_rate=float,
                              feature_dim=int, l2=float))
    train_seed = read_field(train_obj, "seed", int, train_where)
    if not 0 <= train_seed < 1 << 63:  # the model file stores it as a signed 64-bit integer
        raise ValidationError(f"{train_where}: seed must be in [0, 2^63)")
    train_obj.check(train_where)

    members = tuple(
        _parse_member(m, f"{where}.members[{i}]")
        for i, m in enumerate(read_field(obj, "members", list, where))
    )
    check_members(members, where)
    obj.check(where)
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
    where = str(path)
    obj = _Keys(obj)
    obj.get("workers")  # read, so accepted, and ignored: older configs set it

    def resolve(raw: Optional[str]) -> Optional[Path]:
        if raw is None:
            return None
        p = Path(raw)
        return p if p.is_absolute() else base_dir / p

    out_dir = resolve(read_field(obj, "out_dir", str, where))
    corpus_path = resolve(read_field(obj, "corpus", str, where, None))
    synonyms_path = resolve(read_field(obj, "section_synonyms", str, where, None))

    tiers_obj = _Keys(read_field(obj, "tiers", dict, where))
    tiers: dict[Tier, TierSettings] = {}
    for tier in (Tier.T1, Tier.T2):
        if tier.value in tiers_obj:
            tiers[tier] = _parse_tier(tier, read_field(tiers_obj, tier.value, dict, "tiers"),
                                      f"tiers.{tier.value}")
    tiers_obj.check("tiers")
    if not tiers:
        raise ValidationError(f"{path}: config defines no tiers")

    remote_obj = _Keys(read_field(obj, "remote", dict, where, {}))
    endpoints = _Keys(read_field(remote_obj, "endpoints", dict, "remote", {}))
    for tier in (Tier.T1, Tier.T2):
        url = read_field(endpoints, tier.value, str, "remote.endpoints", None)
        if url is not None:
            check_endpoint(url, f"remote.endpoints: field {tier.value!r}")
    endpoints.check("remote.endpoints")
    remote = RemoteSettings(endpoints=dict(endpoints),
                            **_present(remote_obj, "remote", timeout=float, max_retries=int))
    remote_obj.check("remote")
    if remote.timeout <= 0:
        raise ValidationError("remote: field 'timeout': must be positive")
    if remote.max_retries < 0:
        raise ValidationError("remote: field 'max_retries': must not be negative")

    obj.check(where)
    return RunConfig(out_dir=out_dir, corpus_path=corpus_path, tiers=tiers, remote=remote,
                     section_synonyms_path=synonyms_path)
