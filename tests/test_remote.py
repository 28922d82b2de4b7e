import json
import ssl
from http.client import HTTPSConnection

import pytest

from reportable_triage.backend import remote
from reportable_triage.backend.remote import (
    BACKOFF_BASE_S,
    BACKOFF_MAX_S,
    CLIENT_HEADER,
    RemoteBackend,
    classify_url,
    encode_request,
)
from reportable_triage.corpus import Tier
from reportable_triage.errors import (
    RemoteProtocolError,
    RemoteStatusError,
    ScoreRangeError,
    TransportError,
    TriageError,
)
from reportable_triage.preprocess import NormalizedInput

from mock_server import MockClassifyServer, score_once


def test_echo_contract_single_text():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.9])) as server:
        scores = score_once(server.endpoint, Tier.T1, ["a text"], timeout=5)
    assert scores == [0.9]


def test_request_body_is_golden_bytes_and_path_and_headers():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.1, 0.2])) as server:
        score_once(server.endpoint, Tier.T2, ["lesion one", "lesion two"], timeout=5)
        captured = server.requests[0]
    assert captured.path == "/v1/classify"
    assert captured.body == b'{"task":"t2","texts":["lesion one","lesion two"]}'
    assert captured.headers.get("x-client") == CLIENT_HEADER
    assert captured.headers.get("content-type") == "application/json"


def test_credentials_in_the_endpoint_go_as_basic_auth():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.5])) as server:
        host = server.endpoint.removeprefix("http://")
        score_once(f"http://user%40site:p%3Ass@{host}", Tier.T1, ["a"], timeout=5)
        score_once(server.endpoint, Tier.T1, ["a"], timeout=5)
        with_auth, without = ({k.lower(): v for k, v in r.headers.items()}
                              for r in server.requests)
    assert with_auth["authorization"] == "Basic dXNlckBzaXRlOnA6c3M="  # user@site:p:ss
    assert with_auth["host"] == host
    assert "authorization" not in without


def test_encode_request_handles_unicode_compactly():
    body = encode_request(Tier.T1, ["naïve café"])
    assert body == '{"task":"t1","texts":["naïve café"]}'.encode("utf-8")


def test_count_mismatch_is_protocol_error():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.1, 0.2])) as server:
        with pytest.raises(RemoteProtocolError, match="count mismatch"):
            score_once(server.endpoint, Tier.T1, ["a", "b", "c"], timeout=5)


def test_out_of_range_score_is_range_error():
    # a float is shown; an integer is named, not printed: 4,300 digits is the
    # most parse_json reads
    for score, shown in (("1.5", "1.5"), ("-0.25", "-0.25"), ("2", "an integer"),
                         ("9" * 4300, "an integer"), ("-" + "9" * 4300, "an integer")):
        body = ('{"scores": [0.5, ' + score + "]}").encode()
        with MockClassifyServer(lambda c, body=body: (200, body)) as server:
            with pytest.raises(ScoreRangeError) as exc:
                score_once(server.endpoint, Tier.T1, ["a", "b"], timeout=5)
        message = str(exc.value)
        assert message == (f"{server.endpoint}/v1/classify: "
                           f"scores[1] out of range [0, 1]: {shown}")
        assert len(message) < 100


def test_nan_score_is_range_error():
    # json.dumps would not emit these; craft by hand. The integer is beyond
    # float range, where a float() or math.isnan() of it overflows
    for body in (b'{"scores": [NaN]}', b'{"scores": [' + b"9" * 400 + b"]}"):
        with MockClassifyServer(lambda c, body=body: (200, body)) as server:
            with pytest.raises(ScoreRangeError, match="out of range"):
                score_once(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_non_numeric_score_is_protocol_error():
    # the score is named by its JSON type, never echoed: it can be megabytes
    for score, kind in (('"high"', "a string"), ('"' + "x" * 1_000_000 + '"', "a string"),
                        ("true", "true or false"), ("null", "null"), ("[0.5]", "an array"),
                        ('{"p": 0.5}', "an object")):
        body = ('{"scores": [0.5, ' + score + "]}").encode()
        with MockClassifyServer(lambda c, body=body: (200, body)) as server:
            with pytest.raises(RemoteProtocolError) as exc:
                score_once(server.endpoint, Tier.T1, ["a", "b"], timeout=5)
        assert str(exc.value) == (f"{server.endpoint}/v1/classify: "
                                  f"scores[1] is not a number, got {kind}")


def test_malformed_body_is_protocol_error():
    for body in (b"<html>oops</html>", b'{"scores": [' + b"1" * 5000 + b"]}",
                 b"[" * 100_000):
        with MockClassifyServer(lambda c, body=body: (200, body)) as server:
            with pytest.raises(RemoteProtocolError, match="malformed"):
                score_once(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_missing_scores_key_is_protocol_error():
    with MockClassifyServer(lambda c: (200, b'{"result": []}')) as server:
        with pytest.raises(RemoteProtocolError, match="scores"):
            score_once(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_non_success_status_is_status_error_and_not_retried():
    with MockClassifyServer(lambda c: (503, b"busy")) as server:
        with pytest.raises(RemoteStatusError, match="503"):
            score_once(server.endpoint, Tier.T1, ["a"], timeout=5, max_retries=3)
        assert len(server.requests) == 1


def test_timeout_retries_configured_times_then_transport_error():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.5]), sleep_s=2.0) as server:
        with pytest.raises(TransportError, match="after 3 attempts"):
            score_once(server.endpoint, Tier.T1, ["a", "b", "c"],
                       timeout=0.2, max_retries=2)
        assert len(server.requests) == 3  # 1 initial + 2 retries
        # each retry sends the request again as it was
        assert len({(r.path, r.body) for r in server.requests}) == 1


def test_connection_refused_is_transport_error():
    # bind a port then close it so nothing is listening
    with MockClassifyServer() as server:
        endpoint = server.endpoint
    with pytest.raises(TransportError):
        score_once(endpoint, Tier.T1, ["a"], timeout=0.5, max_retries=0)


def test_remote_backend_scores_inputs_and_raises_transport_errors():
    def ni(text):
        return NormalizedInput(text=text, approx_token_count=1, truncated=False,
                               sections_used=("diagnosis",))

    with MockClassifyServer(MockClassifyServer.score_per_text(0.8)) as server:
        backend = RemoteBackend(endpoint=server.endpoint, task=Tier.T1, timeout=5)
        texts = backend.featurize([ni("one"), ni("two")])
        backend.send(texts)
        assert backend.score_features(texts) == [0.8, 0.8]
        sent = json.loads(server.requests[0].body)
        assert sent == {"task": "t1", "texts": ["one", "two"]}
        endpoint = server.endpoint

    backend = RemoteBackend(endpoint=endpoint, task=Tier.T1, timeout=0.3, max_retries=0)
    texts = backend.featurize([ni("one")])
    backend.send(texts)  # keeps the failure for score_features to raise
    with pytest.raises(TransportError, match="unreachable"):
        backend.score_features(texts)


def test_remote_backend_sends_its_batches_over_one_connection():
    def ni(text):
        return NormalizedInput(text=text, approx_token_count=1, truncated=False,
                               sections_used=("diagnosis",))

    with MockClassifyServer(MockClassifyServer.score_per_text(0.25)) as server:
        backend = RemoteBackend(endpoint=server.endpoint, task=Tier.T2, timeout=5)
        for n in (3, 1, 2, 4):
            texts = backend.featurize([ni(f"text {i}") for i in range(n)])
            backend.send(texts)
            assert backend.score_features(texts) == [0.25] * n
        backend.close()
        assert len(server.requests) == 4
        assert server.connections == 1


def test_transport_retries_back_off_exponentially_up_to_the_cap(monkeypatch):
    delays = []
    monkeypatch.setattr(remote, "sleep", delays.append)
    with MockClassifyServer() as server:
        endpoint = server.endpoint  # nothing listens once the context exits
    for max_retries in (0, 1, 7):
        delays.clear()
        with pytest.raises(TransportError, match=f"after {max_retries + 1} attempts"):
            score_once(endpoint, Tier.T1, ["a"], timeout=0.5, max_retries=max_retries)
        assert delays == [min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2 ** i)
                          for i in range(max_retries)]
    assert delays[-1] == BACKOFF_MAX_S  # seven retries reach the cap


def test_remote_backend_reconnects_to_a_service_that_drops_idle_connections(monkeypatch):
    # the service closes each connection after its reply without saying so:
    # the next request on it fails before its reply starts, and is sent again
    # on a fresh connection without spending a retry or a backoff
    monkeypatch.setattr(remote, "sleep", lambda s: pytest.fail("backed off"))
    with MockClassifyServer(MockClassifyServer.score_per_text(0.5),
                            close_after_reply=True) as server:
        backend = RemoteBackend(endpoint=server.endpoint, task=Tier.T1, timeout=5,
                                max_retries=0)
        for n in range(1, 6):
            backend.send([f"text {i}" for i in range(n)])
            assert backend.score_features([f"text {i}" for i in range(n)]) == [0.5] * n
        backend.close()
        assert [len(json.loads(r.body)["texts"]) for r in server.requests] == [1, 2, 3, 4, 5]
        assert server.connections == 5


def test_scoring_with_no_request_pending_fails_before_any_io():
    with MockClassifyServer() as server:
        backend = RemoteBackend(endpoint=server.endpoint, task=Tier.T1, timeout=5,
                                max_retries=1)
        with pytest.raises(TriageError, match="no request pending") as caught:
            backend.score_features(["a"])
        backend.close()
        assert caught.type is TriageError  # a caller's error, not a transport failure
        assert str(caught.value).startswith(classify_url(server.endpoint))
        assert server.requests == [] and server.connections == 0


def test_an_https_endpoint_verifies_the_service_certificate():
    # a plain-HTTP service behind an https:// endpoint fails the TLS handshake:
    # every attempt is a transport failure, and no request reaches the service
    with MockClassifyServer() as server:
        endpoint = server.endpoint.replace("http://", "https://", 1)
        backend = RemoteBackend(endpoint=endpoint, task=Tier.T1, timeout=5, max_retries=1)
        assert isinstance(backend._http, HTTPSConnection)
        context = backend._http._context
        assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname
        backend.send(["a"])
        with pytest.raises(TransportError, match="after 2 attempts"):
            backend.score_features(["a"])
        backend.close()
        assert server.requests == []
