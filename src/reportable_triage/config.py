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

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .backend.baseline import TrainHyper
from .backend.remote import DEFAULT_MAX_RETRIES, DEFAULT_TIMEOUT
from .corpus import Tier, is_normalized_section_name
from .errors import ConfigurationError, ValidationError
from .preprocess import DEFAULT_FALLBACK_SECTIONS, DEFAULT_TOKEN_BUDGET, PipelineVariant
from .sampler import SplitSpec, UndersamplePolicy, default_policy
from .sectioner import SectionSynonymTable, default_synonym_table, load_synonym_table
from .util import lone_surrogate, open_json, parse_json

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
            return env
        return self.endpoints.get(task.value)


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
            raise ConfigurationError(f"config has no settings for tier {task.value!r}")
        return self.tiers[task]

    def model_file(self, member: MemberConfig) -> Path:
        if member.model_path is None:
            raise ConfigurationError(
                f"member {member.backend_id!r} is native_baseline but has no model_path"
            )
        path = Path(member.model_path)
        return path if path.is_absolute() else self.out_dir / path

    def dataset_dir(self, task: Tier) -> Path:
        return self.out_dir / task.value


_REQUIRED = object()
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", dict: "an object", list: "a list"}


def _get(obj: dict, key: str, kind: type, where: str, default=_REQUIRED):
    """obj[key] as kind, or default when the key is absent.

    A missing required key, a value of the wrong type, a number that is not
    finite (NaN, an infinity, or an integer beyond float range) or a string
    holding a lone surrogate (a \\ud800-style escape, which no path or output
    file can encode) raises ConfigurationError naming the key path. Integers
    are accepted as numbers; booleans are not integers. null is accepted only
    where the default is None.
    """
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise ConfigurationError(f"{where}: missing required key {key!r}")
    if value is None and default is None:
        return None
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigurationError(
            f"{where}: {key!r} must be {_TYPE_NAMES[kind]}, got {json.dumps(value)}"
        )
    if kind is str and lone_surrogate(value) >= 0:
        raise ConfigurationError(f"{where}: {key!r} holds a lone surrogate")
    if kind is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{where}: {key!r} must be a finite number")
    return number


def _present(obj: dict, where: str, **kinds: type) -> dict:
    """Each key of kinds that obj holds, read as its kind by _get.

    Passed as keyword arguments to a dataclass, this leaves every absent key
    to the default the dataclass declares.
    """
    return {key: _get(obj, key, kind, where) for key, kind in kinds.items() if key in obj}


def check_members(members: Sequence[MemberConfig], where: str) -> None:
    """A tier has exactly two members, variants A and B, with distinct backend_ids."""
    if len(members) != 2:
        raise ConfigurationError(f"{where}: exactly two members are required per tier")
    if {m.variant for m in members} != set(PipelineVariant):
        raise ConfigurationError(f"{where}: members must cover variants A and B exactly")
    if members[0].backend_id == members[1].backend_id:
        raise ConfigurationError(f"{where}: member backend_ids must be distinct")


def _parse_member(obj: dict, where: str) -> MemberConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where}: member must be an object")
    kind = _get(obj, "kind", str, where)
    if kind not in ("native_baseline", "remote"):
        raise ConfigurationError(f"{where}: unknown backend kind {kind!r}")
    fallback = _get(obj, "fallback_sections", list, where, list(DEFAULT_FALLBACK_SECTIONS))
    if not all(isinstance(s, str) and is_normalized_section_name(s) for s in fallback):
        raise ConfigurationError(
            f"{where}: fallback_sections must be a list of normalized section names"
        )
    member = MemberConfig(
        backend_id=_get(obj, "backend_id", str, where),
        kind=kind,
        variant=PipelineVariant.parse(_get(obj, "variant", str, where)),
        fallback_sections=tuple(fallback),
        model_path=_get(obj, "model_path", str, where, None),
        **_present(obj, where, threshold=float, token_budget=int),
    )
    if not 0.0 < member.threshold < 1.0:
        raise ConfigurationError(f"{where}: threshold must be in (0, 1)")
    if member.token_budget <= 0:
        raise ConfigurationError(f"{where}: token_budget must be positive")
    return member


def _parse_tier(task: Tier, obj: dict, where: str) -> TierSettings:
    split_where = f"{where}.split"
    split_obj = _get(obj, "split", dict, where)
    split = SplitSpec(seed=_get(split_obj, "seed", int, split_where),
                      **_present(split_obj, split_where, train_fraction=float, stratified=bool))

    under_where = f"{where}.undersample"
    under_obj = _get(obj, "undersample", dict, where)
    under_seed = _get(under_obj, "seed", int, under_where)
    base_policy = default_policy(task, under_seed)
    kept = _get(under_obj, "kept_class", str, under_where, base_policy.kept_class.value)
    sampled = _get(under_obj, "sampled_class", str, under_where,
                   base_policy.sampled_class.value)
    policy = UndersamplePolicy(
        task=task,
        kept_class=task.parse_label(kept),
        sampled_class=task.parse_label(sampled),
        ratio=_get(under_obj, "ratio", float, under_where, base_policy.ratio),
        seed=under_seed,
    )

    train_where = f"{where}.train"
    train_obj = _get(obj, "train", dict, where)
    hyper = TrainHyper(**_present(train_obj, train_where, epochs=int, learning_rate=float,
                                  feature_dim=int, l2=float))
    train_seed = _get(train_obj, "seed", int, train_where)
    if not 0 <= train_seed < 1 << 63:  # the model file stores it as a signed 64-bit integer
        raise ConfigurationError(f"{train_where}: seed must be in [0, 2^63)")

    members = tuple(
        _parse_member(m, f"{where}.members[{i}]")
        for i, m in enumerate(_get(obj, "members", list, where))
    )
    check_members(members, where)
    return TierSettings(task=task, split=split, policy=policy, train=hyper,
                        train_seed=train_seed, members=members)  # type: ignore[arg-type]


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open_json(path) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    try:
        obj = parse_json(text)
    except ValidationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")

    base_dir = path.resolve().parent
    where = str(path)

    def resolve(raw: Optional[str]) -> Optional[Path]:
        if raw is None:
            return None
        p = Path(raw)
        return p if p.is_absolute() else base_dir / p

    out_dir = resolve(_get(obj, "out_dir", str, where))
    corpus_path = resolve(_get(obj, "corpus", str, where, None))

    tiers_obj = _get(obj, "tiers", dict, where)
    tiers: dict[Tier, TierSettings] = {}
    for tier in (Tier.T1, Tier.T2):
        if tier.value in tiers_obj:
            tiers[tier] = _parse_tier(tier, _get(tiers_obj, tier.value, dict, "tiers"),
                                      f"tiers.{tier.value}")
    if not tiers:
        raise ConfigurationError(f"{path}: config defines no tiers")

    remote_obj = _get(obj, "remote", dict, where, {})
    endpoints = _get(remote_obj, "endpoints", dict, "remote", {})
    for name in endpoints:
        _get(endpoints, name, str, "remote.endpoints", None)
    remote = RemoteSettings(
        timeout=_get(remote_obj, "timeout", float, "remote", DEFAULT_TIMEOUT),
        max_retries=_get(remote_obj, "max_retries", int, "remote", DEFAULT_MAX_RETRIES),
        endpoints=dict(endpoints),
    )

    return RunConfig(out_dir=out_dir, corpus_path=corpus_path, tiers=tiers, remote=remote,
                     section_synonyms_path=resolve(
                         _get(obj, "section_synonyms", str, where, None)))
