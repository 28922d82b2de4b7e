"""Shared helper for CLI-driven tests: writes a complete run config."""

from __future__ import annotations

import json
from pathlib import Path


def config_doc(*, corpus="corpus.jsonl", epochs=4, feature_dim=1 << 16, remote_kind=False,
               remote=None, token_budget=256) -> dict:
    """A complete run config document; relative paths resolve against its file."""
    kind = "remote" if remote_kind else "native_baseline"

    def tier(t):
        members = []
        for variant, suffix in (("a", "a"), ("b", "b")):
            member = {
                "backend_id": f"{t}-baseline-{suffix}",
                "kind": kind,
                "variant": variant,
                "threshold": 0.5,
                "token_budget": token_budget,
            }
            if not remote_kind:
                member["model_path"] = f"models/{t}_{suffix}.bin"
            members.append(member)
        return {
            "split": {"train_fraction": 0.8, "seed": 11, "stratified": True},
            "undersample": {"seed": 12},
            "train": {"epochs": epochs, "learning_rate": 0.2,
                      "feature_dim": feature_dim, "l2": 1e-6, "seed": 13},
            "members": members,
        }

    return {
        "out_dir": "out",
        "corpus": corpus,
        "tiers": {"t1": tier("t1"), "t2": tier("t2")},
        "remote": remote or {"timeout": 5.0, "max_retries": 1, "endpoints": {}},
    }


def write_config(base: Path, *, name="config.json", **settings) -> Path:
    """Write config_doc(**settings) to base/name."""
    path = base / name
    path.write_text(json.dumps(config_doc(**settings), indent=2), encoding="utf-8")
    return path
