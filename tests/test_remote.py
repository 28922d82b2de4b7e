import json

import pytest

from reportable_triage.backend.remote import (
    CLIENT_HEADER,
    RemoteBackend,
    encode_request,
    remote_score,
)
from reportable_triage.corpus import Tier
from reportable_triage.errors import (
    RemoteProtocolError,
    RemoteStatusError,
    ScoreRangeError,
    TransportError,
)
from reportable_triage.preprocess import NormalizedInput

from mock_server import MockClassifyServer


def test_echo_contract_single_text():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.9])) as server:
        scores = remote_score(server.endpoint, Tier.T1, ["a text"], timeout=5)
    assert [s.probability for s in scores] == [0.9]


def test_request_body_is_golden_bytes_and_path_and_headers():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.1, 0.2])) as server:
        remote_score(server.endpoint, Tier.T2, ["lesion one", "lesion two"], timeout=5)
        captured = server.requests[0]
    assert captured.path == "/v1/classify"
    assert captured.body == b'{"task":"t2","texts":["lesion one","lesion two"]}'
    assert captured.headers.get("x-client") == CLIENT_HEADER
    assert captured.headers.get("content-type") == "application/json"


def test_encode_request_handles_unicode_compactly():
    body = encode_request(Tier.T1, ["naïve café"])
    assert body == '{"task":"t1","texts":["naïve café"]}'.encode("utf-8")


def test_count_mismatch_is_protocol_error():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.1, 0.2])) as server:
        with pytest.raises(RemoteProtocolError, match="count mismatch"):
            remote_score(server.endpoint, Tier.T1, ["a", "b", "c"], timeout=5)


def test_out_of_range_score_is_range_error():
    with MockClassifyServer(MockClassifyServer.echo_scores([1.5])) as server:
        with pytest.raises(ScoreRangeError, match="out of range"):
            remote_score(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_nan_score_is_range_error():
    body = b'{"scores": [NaN]}'  # json.dumps would not emit this; craft by hand
    with MockClassifyServer(lambda c: (200, body)) as server:
        with pytest.raises(ScoreRangeError):
            remote_score(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_non_numeric_score_is_protocol_error():
    with MockClassifyServer(lambda c: (200, b'{"scores": ["high"]}')) as server:
        with pytest.raises(RemoteProtocolError, match="not a number"):
            remote_score(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_malformed_body_is_protocol_error():
    for body in (b"<html>oops</html>", b'{"scores": [' + b"1" * 5000 + b"]}",
                 b"[" * 100_000):
        with MockClassifyServer(lambda c, body=body: (200, body)) as server:
            with pytest.raises(RemoteProtocolError, match="malformed"):
                remote_score(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_missing_scores_key_is_protocol_error():
    with MockClassifyServer(lambda c: (200, b'{"result": []}')) as server:
        with pytest.raises(RemoteProtocolError, match="scores"):
            remote_score(server.endpoint, Tier.T1, ["a"], timeout=5)


def test_non_success_status_is_status_error_and_not_retried():
    with MockClassifyServer(lambda c: (503, b"busy")) as server:
        with pytest.raises(RemoteStatusError, match="503"):
            remote_score(server.endpoint, Tier.T1, ["a"], timeout=5, max_retries=3)
        assert len(server.requests) == 1


def test_timeout_retries_configured_times_then_transport_error():
    with MockClassifyServer(MockClassifyServer.echo_scores([0.5]), sleep_s=2.0) as server:
        with pytest.raises(TransportError, match="after 3 attempts"):
            remote_score(server.endpoint, Tier.T1, ["a", "b", "c"],
                         timeout=0.2, max_retries=2)
        assert len(server.requests) == 3  # 1 initial + 2 retries


def test_connection_refused_is_transport_error():
    # bind a port then close it so nothing is listening
    with MockClassifyServer() as server:
        endpoint = server.endpoint
    with pytest.raises(TransportError):
        remote_score(endpoint, Tier.T1, ["a"], timeout=0.5, max_retries=0)


def test_remote_backend_scores_inputs_and_tags_transport_errors():
    def ni(text):
        return NormalizedInput(text=text, approx_token_count=1, truncated=False,
                               sections_used=("diagnosis",))

    with MockClassifyServer(MockClassifyServer.score_per_text(0.8)) as server:
        backend = RemoteBackend(endpoint=server.endpoint, task=Tier.T1,
                                backend_id="remote-a", timeout=5)
        scores = backend.score_batch([ni("one"), ni("two")])
        assert [s.probability for s in scores] == [0.8, 0.8]
        sent = json.loads(server.requests[0].body)
        assert sent == {"task": "t1", "texts": ["one", "two"]}
        endpoint = server.endpoint

    backend = RemoteBackend(endpoint=endpoint, task=Tier.T1,
                            backend_id="remote-a", timeout=0.3, max_retries=0)
    with pytest.raises(TransportError, match="remote-a"):
        backend.score_batch([ni("one")])
