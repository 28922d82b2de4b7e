"""HTTP client for remote inference services hosting fine-tuned models.

Wire contract: POST {endpoint}/v1/classify with body
{"task":"t1"|"t2","texts":[...]} (compact JSON, UTF-8) and header
"x-client: reportable-triage/1"; the service answers 200 with
{"scores":[...]} of equal length, every score in [0, 1].

A RemoteBackend is one member's client. A request goes out in two steps
over its keep-alive connection: send() puts it there and remote_score reads
its reply, so a caller can work while the service scores. The client is the
standard library's http.client: it reads no proxy settings, and it verifies
an https service's certificate against the system's trust store.

Only transport failures (connection refused/reset, timeouts) are retried,
after a bounded exponential backoff; the request is idempotent so a
duplicate delivery is harmless. Status, protocol, and score-range
violations fail immediately with distinct error kinds so callers can tell a
flaky network from a broken service; all four are runtime failures (exit
2). No message echoes a value that can be long, nor the endpoint's user and
password.
"""

from __future__ import annotations

import logging
import ssl
import weakref
from base64 import b64encode
from http.client import HTTPConnection, HTTPException, HTTPResponse, HTTPSConnection
from time import sleep
from typing import Optional, Sequence
from urllib.parse import unquote, urlsplit

from ..corpus import Tier
from ..errors import (
    RemoteProtocolError,
    RemoteStatusError,
    ScoreRangeError,
    TransportError,
    TriageError,
    ValidationError,
)
from ..preprocess import NormalizedInput
from ..util import JSON_TYPES, dumps_line, parse_json

logger = logging.getLogger(__name__)

CLIENT_HEADER = "reportable-triage/1"
DEFAULT_TIMEOUT = 10.0
DEFAULT_MAX_RETRIES = 2
# the first retry waits BACKOFF_BASE_S, and each later one twice as long as
# the one before, up to BACKOFF_MAX_S
BACKOFF_BASE_S = 0.1
BACKOFF_MAX_S = 2.0

_HEADERS = {"content-type": "application/json", "x-client": CLIENT_HEADER}
# OSError covers the socket, timeouts and TLS; HTTPException a reply that is not HTTP
_TRANSPORT_ERRORS = (OSError, HTTPException)


def classify_url(endpoint: str) -> str:
    return endpoint.rstrip("/") + "/v1/classify"


def encode_request(task: Tier, texts: Sequence[str]) -> bytes:
    """Canonical request body; byte-stable for a given (task, texts)."""
    payload = {"task": task.value, "texts": list(texts)}
    return dumps_line(payload).encode("utf-8")


class RemoteBackend:
    """ClassifierBackend adapter over a remote inference endpoint.

    Its batches go over one keep-alive connection to the endpoint's classify
    URL, opened when a request is put on it and reopened on the next one
    after a failure; close() closes it. send() puts a batch's request on it
    and score_features() reads the reply, so the cascade assembles the next
    batch while the service scores this one. A connection the service
    dropped while idle fails before the reply starts: receive() then puts
    the request again, once, on a fresh connection, without spending a retry.
    """

    # the service hashes, so a remote member's features are its texts
    feature_dim = None

    def __init__(self, endpoint: str, task: Tier, timeout: float = DEFAULT_TIMEOUT,
                 max_retries: int = DEFAULT_MAX_RETRIES):
        self.task, self.max_retries = task, max_retries
        parts = urlsplit(classify_url(endpoint))
        # what messages name: the URL without the user and password of its netloc
        self.url = parts._replace(netloc=parts.netloc.rpartition("@")[2]).geturl()
        self._target = parts.path
        self._headers = _HEADERS
        if parts.password is not None and (parts.username or parts.password):
            # a user and password in the URL go as HTTP basic auth
            user_pass = f"{unquote(parts.username)}:{unquote(parts.password)}"
            self._headers = {**_HEADERS, "authorization":
                             "Basic " + b64encode(user_pass.encode("latin-1")).decode("ascii")}
        if parts.scheme == "https":
            self._http = HTTPSConnection(parts.hostname, parts.port or 443, timeout=timeout,
                                         context=ssl.create_default_context())
        else:
            self._http = HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)
        # a connection left open is closed when this object is collected
        weakref.finalize(self, self._http.close)
        self.pending: Optional[bytes] = None  # the body of the request awaiting its reply
        self._failure: Optional[Exception] = None  # why sending it failed
        self._reused = False  # whether it went out on a connection that carried a reply

    def featurize(self, inputs: Sequence[NormalizedInput]) -> list[str]:
        return [inp.text for inp in inputs]

    def send(self, texts: Sequence[str]) -> None:
        self.put(encode_request(self.task, texts))

    def score_features(self, texts: Sequence[str]) -> list[float]:
        return remote_score(self, texts)  # the module global, which the tracer wraps

    def put(self, body: bytes) -> None:
        """Put a request on the connection. A transport failure closes the
        connection and is kept for receive() to raise."""
        self.pending, self._failure = body, None
        self._reused = self._http.sock is not None
        try:
            self._http.request("POST", self._target, body, self._headers)
        except _TRANSPORT_ERRORS as exc:
            self._http.close()
            self._failure = exc

    def _response(self) -> HTTPResponse:
        if self._failure is not None:
            raise self._failure
        return self._http.getresponse()  # closes the connection if it raises ConnectionError

    def receive(self) -> tuple[int, bytes]:
        """The status and body of the reply to the pending request. A
        transport failure closes the connection and raises; the request
        stays pending."""
        try:
            try:
                response = self._response()
            except ConnectionError:
                if not self._reused:
                    raise
                self.put(self.pending)  # fresh: _reused is now False
                response = self._response()
            reply = response.status, response.read()
        except _TRANSPORT_ERRORS:
            self._http.close()
            raise
        self.pending = None
        return reply

    def close(self) -> None:
        self._http.close()
        self.pending = None


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


def remote_score(backend: RemoteBackend, texts: Sequence[str]) -> list[float]:
    """The scores of texts, read from the reply to the request backend.send()
    put on its connection for them. A transport failure is retried up to
    backend.max_retries times, each after a backoff (BACKOFF_BASE_S,
    doubling, at most BACKOFF_MAX_S) and by sending the request again.
    Without a pending request there is no reply to read: that is a caller's
    error, raised before any I/O.
    """
    url = backend.url
    if backend.pending is None:
        raise TriageError(f"{url}: no request pending (send() it first)")
    attempts = backend.max_retries + 1
    delay = BACKOFF_BASE_S
    for attempt in range(1, attempts + 1):
        try:
            status, body = backend.receive()
        except _TRANSPORT_ERRORS as exc:
            last_error = exc
            logger.warning("transport failure on %s (attempt %d/%d): %s",
                           url, attempt, attempts, exc)
            if attempt < attempts:
                sleep(delay)
                delay = min(2 * delay, BACKOFF_MAX_S)
                backend.put(backend.pending)
            continue
        if status != 200:
            raise RemoteStatusError(f"{url}: status {status}")
        return _parse_scores(body, len(texts), url)
    raise TransportError(
        f"{url}: unreachable after {attempts} attempts "
        f"(batch of {len(texts)}): {last_error}"
    )
