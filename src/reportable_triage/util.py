"""Small shared helpers: exact ratio arithmetic, punctuation and atomic file writes."""

from __future__ import annotations

import math
import os
import tempfile
import unicodedata
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path


def ratio_floor(ratio: float, n: int) -> int:
    """floor(ratio * n) computed exactly.

    Ratios arrive as decimal literals (0.8, 1.2); going through the decimal
    string representation avoids binary-float artifacts such as
    0.3 * 10 == 2.9999999999999996 flooring to 2.
    """
    return math.floor(Fraction(str(ratio)) * n)


def ratio_round_half_up(ratio: float, n: int) -> int:
    """round(ratio * n) with exact half-up tie-breaking."""
    return math.floor(Fraction(str(ratio)) * n + Fraction(1, 2))


def round_half_up(value: float, ndigits: int = 2) -> float:
    """Decimal round-half-up, the convention used for two-decimal tables."""
    q = Decimal(1).scaleb(-ndigits)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


@lru_cache(maxsize=4096)
def is_punct(ch: str) -> bool:
    """Whether ch is Unicode punctuation (any general category P*)."""
    return unicodedata.category(ch).startswith("P")


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write a file atomically (temp file in the same directory + rename)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
