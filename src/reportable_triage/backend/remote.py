"""HTTP client for remote inference services hosting fine-tuned models.

Wire contract: POST {endpoint}/v1/classify with body
{"task":"t1"|"t2","texts":[...]} (compact JSON, UTF-8) and header
"x-client: reportable-triage/1"; the service answers 200 with
{"scores":[...]} of equal length, every score in [0, 1].

Only transport failures (connection refused/reset, timeouts) are retried;
the request is idempotent so a duplicate delivery is harmless. Status,
protocol, and score-range violations fail immediately with distinct error
kinds so callers can tell a flaky network from a broken service; all four
are runtime failures (exit 2). No message echoes a value that can be long.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

import requests

from ..corpus import Tier
from ..errors import (
    RemoteProtocolError,
    RemoteStatusError,
    ScoreRangeError,
    TransportError,
    ValidationError,
)
from ..preprocess import NormalizedInput
from ..util import JSON_TYPES, dumps_line, parse_json

logger = logging.getLogger(__name__)

CLIENT_HEADER = "reportable-triage/1"
DEFAULT_TIMEOUT = 10.0
DEFAULT_MAX_RETRIES = 2


def classify_url(endpoint: str) -> str:
    return endpoint.rstrip("/") + "/v1/classify"


def encode_request(task: Tier, texts: Sequence[str]) -> bytes:
    """Canonical request body; byte-stable for a given (task, texts)."""
    payload = {"task": task.value, "texts": list(texts)}
    return dumps_line(payload).encode("utf-8")


def _parse_scores(body: bytes, expected: int, url: str) -> list[float]:
    try:
        obj = parse_json(body.decode("utf-8", errors="surrogateescape"))
    except ValidationError as exc:
        raise RemoteProtocolError(f"{url}: malformed response body: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("scores"), list):
        raise RemoteProtocolError(f"{url}: response missing 'scores' array")
    scores = obj["scores"]
    if len(scores) != expected:
        raise RemoteProtocolError(
            f"{url}: score count mismatch: sent {expected} texts, got {len(scores)} scores"
        )
    out: list[float] = []
    for i, value in enumerate(scores):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise RemoteProtocolError(
                f"{url}: scores[{i}] is not a number, got {JSON_TYPES[type(value)]}")
        if not 0.0 <= value <= 1.0:  # False for NaN, and exact for any integer
            # a float's repr is short; an integer's can run to 4,300 digits
            shown = repr(value) if type(value) is float else JSON_TYPES[int]
            raise ScoreRangeError(f"{url}: scores[{i}] out of range [0, 1]: {shown}")
        out.append(float(value))
    return out


def remote_score(
    endpoint: str,
    task: Tier,
    texts: Sequence[str],
    *,
    timeout: float = DEFAULT_TIMEOUT,
    max_retries: int = DEFAULT_MAX_RETRIES,
    session: Optional[requests.Session] = None,
) -> list[float]:
    """Score one batch of texts, retrying transport failures up to max_retries."""
    url = classify_url(endpoint)
    body = encode_request(task, texts)
    headers = {"content-type": "application/json", "x-client": CLIENT_HEADER}
    post = session.post if session is not None else requests.post

    attempts = max_retries + 1
    last_error: Exception | None = None
    for attempt in range(1, attempts + 1):
        try:
            response = post(url, data=body, headers=headers, timeout=timeout)
        except (requests.Timeout, requests.ConnectionError) as exc:
            last_error = exc
            logger.warning("transport failure on %s (attempt %d/%d): %s",
                           url, attempt, attempts, exc)
            continue
        if response.status_code != 200:
            raise RemoteStatusError(f"{url}: status {response.status_code}")
        return _parse_scores(response.content, len(texts), url)
    raise TransportError(
        f"{url}: unreachable after {attempts} attempts "
        f"(batch of {len(texts)}): {last_error}"
    )


@dataclass
class RemoteBackend:
    """ClassifierBackend adapter over a remote inference endpoint.

    Its batches go through one requests.Session, so they reuse one pooled
    connection; close() releases it. A pooled connection the service has
    dropped fails as a transport error, which remote_score retries.
    """

    endpoint: str
    task: Tier
    timeout: float = DEFAULT_TIMEOUT
    max_retries: int = DEFAULT_MAX_RETRIES
    session: requests.Session = field(default_factory=requests.Session, repr=False,
                                      compare=False)

    # the service hashes, so a remote member's features are its texts
    feature_dim: ClassVar[None] = None

    def featurize(self, inputs: Sequence[NormalizedInput]) -> list[str]:
        return [inp.text for inp in inputs]

    def score_features(self, texts: Sequence[str]) -> list[float]:
        return remote_score(self.endpoint, self.task, texts, timeout=self.timeout,
                            max_retries=self.max_retries, session=self.session)

    def score_batch(self, inputs: Sequence[NormalizedInput]) -> list[float]:
        return self.score_features(self.featurize(inputs))

    def close(self) -> None:
        self.session.close()
