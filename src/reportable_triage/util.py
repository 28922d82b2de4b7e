"""Small shared helpers: exact ratio arithmetic, punctuation, JSON Lines reading and
atomic file writes."""

from __future__ import annotations

import json
import math
import os
import tempfile
import unicodedata
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import IO

from .errors import ValidationError


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


def open_json_lines(path: str | os.PathLike) -> IO[str]:
    """Open a UTF-8 JSON Lines file for reading.

    A byte that is not UTF-8 decodes to a lone surrogate instead of failing
    the read somewhere in its buffer, so parse_json_line can name its line.
    """
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def lone_surrogate(text: str) -> int:
    """Index of the first lone surrogate in text, which UTF-8 cannot encode, or -1.

    An ASCII string, the common case, is answered without a scan.
    """
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            return exc.start
    return -1


def parse_json_line(line: str) -> object:
    """The value a line of open_json_lines holds; ValidationError says why there is none."""
    at = lone_surrogate(line)
    if at >= 0:
        raise ValidationError(
            f"not UTF-8: byte 0x{ord(line[at]) - 0xDC00:02x} at character {at + 1}")
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc.msg}") from None
    except ValueError:  # int() refuses a literal past Python's digit limit
        raise ValidationError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None


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
