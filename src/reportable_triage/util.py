"""Small shared helpers: exact ratio arithmetic, punctuation, reading and
writing JSON, and atomic file writes."""

from __future__ import annotations

import json
import math
import os
import tempfile
import unicodedata
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from functools import lru_cache
from math import isfinite
from pathlib import Path
from typing import IO, Callable, TypeVar

from .errors import ValidationError

T = TypeVar("T")


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


def open_json(path: str | os.PathLike) -> IO[str]:
    """Open a UTF-8 JSON or JSON Lines file for reading.

    A byte that is not UTF-8 decodes to a lone surrogate instead of failing
    the read somewhere in its buffer, so parse_json can say where it is.
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


def parse_json(text: str) -> object:
    """The value text holds; ValidationError says why there is none.

    text is read through open_json, or decoded from UTF-8 with
    errors="surrogateescape", so a lone surrogate stands for a byte that is
    not UTF-8.
    """
    at = lone_surrogate(text)
    if at >= 0:
        raise ValidationError(
            f"not UTF-8: byte 0x{ord(text[at]) - 0xDC00:02x} at character {at + 1}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc.msg}") from None
    except ValueError:  # int() refuses a literal past Python's digit limit
        raise ValidationError("invalid JSON: integer literal too long") from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None


# Compact JSON with non-ASCII text kept as is, for every line the program
# writes or sends; one encoder, where json.dumps would build one per call.
dumps_line = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


REQUIRED = object()
JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "true or false", type(None): "null"}


def read_field(obj: dict, key: str, kind: type, where: str, default=REQUIRED):
    """obj[key], a parsed JSON value, as kind; default when the key is absent.

    ValidationError("<where>: field '<key>': <reason>") is raised for a
    missing required key, a value of another JSON type (named, but never
    echoed: it can be megabytes), a number that is not finite (NaN, an
    infinity, or an integer beyond float range) or a string holding a lone
    surrogate (a \\ud800-style escape, which no output file can encode).
    Integers are accepted as numbers; booleans are not integers. null is
    accepted only where the default is None.
    """
    value = obj.get(key, default)
    if type(value) is kind and (value.isascii() if kind is str
                                else kind is not float or isfinite(value)):
        return value  # the common case, decided without formatting a message
    if value is None and default is None:
        return None
    if value is REQUIRED:
        reason = "missing required field"
    elif not (type(value) is kind or kind is float and type(value) is int):
        reason = f"expected {JSON_TYPES[kind]}, got {JSON_TYPES[type(value)]}"
    elif kind is str:
        at = lone_surrogate(value)
        if at < 0:
            return value
        reason = f"lone surrogate U+{ord(value[at]):04X} (not encodable as UTF-8)"
    else:  # a float that is not finite, or an integer in place of one
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float range
            value = math.inf
        if isfinite(value):
            return value
        reason = "not a finite number"
    raise ValidationError(f"{where}: field {key!r}: {reason}")


def read_json_lines(path: str | os.PathLike,
                    read_line: Callable[[object, str], tuple[str, T]]) -> dict[str, T]:
    """The items of a JSON Lines file keyed by report_id, in line order.

    Each line that is not blank is parsed and handed, with where =
    "<file name>: line N", to read_line, which returns its report_id and item
    or raises a ValidationError that starts with where. A line that is not
    UTF-8 or not JSON, or a report_id an earlier line had, raises one too.
    """
    name = Path(path).name
    items: dict[str, T] = {}
    first_lines: dict[str, int] = {}
    with open_json(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            where = f"{name}: line {lineno}"
            try:
                obj = parse_json(line)
            except ValidationError as exc:
                raise ValidationError(f"{where}: {exc}") from None
            report_id, item = read_line(obj, where)
            first = first_lines.setdefault(report_id, lineno)
            if first != lineno:
                raise ValidationError(f"{where}: field 'report_id': duplicate {report_id!r} "
                            f"(first on line {first})")
            items[report_id] = item
    return items


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
