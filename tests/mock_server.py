"""In-process HTTP mock used by the remote-backend tests.

Captures every request (path, headers, raw body) and answers with whatever
the configured responder returns; a responder can also sleep to trigger
client read timeouts. It speaks HTTP/1.1, so a client may keep a connection
open across requests; `connections` counts the connections it accepted.
With close_after_reply it closes each connection after its reply, without
a `Connection: close` header, as a service that drops idle connections does.
score_once scores one batch as a remote member does, on a client of its own.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from reportable_triage.backend.remote import DEFAULT_MAX_RETRIES, RemoteBackend


def score_once(endpoint, task, texts, *, timeout, max_retries=DEFAULT_MAX_RETRIES):
    """texts' scores from one request, sent and read by a RemoteBackend that
    is closed after."""
    backend = RemoteBackend(endpoint, task, timeout=timeout, max_retries=max_retries)
    try:
        backend.send(texts)
        return backend.score_features(texts)
    finally:
        backend.close()


class CapturedRequest:
    def __init__(self, path, headers, body: bytes):
        self.path = path
        self.headers = dict(headers)
        self.body = body


class MockClassifyServer:
    """Context manager around a loopback HTTP server.

    responder(captured) -> (status:int, body:bytes) decides every answer;
    set sleep_s to stall before responding (for timeout tests).
    """

    def __init__(self, responder=None, sleep_s: float = 0.0, close_after_reply: bool = False):
        self.requests: list[CapturedRequest] = []
        self.connections = 0
        self._connections_lock = threading.Lock()  # each connection has its own thread
        self.sleep_s = sleep_s
        self.close_after_reply = close_after_reply
        self._responder = responder or self.echo_scores([0.5])
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                with outer._connections_lock:
                    outer.connections += 1
                super().setup()

            def do_POST(self):
                length = int(self.headers.get("content-length", 0))
                captured = CapturedRequest(self.path, self.headers,
                                           self.rfile.read(length))
                outer.requests.append(captured)
                if outer.sleep_s:
                    time.sleep(outer.sleep_s)
                status, body = outer._responder(captured)
                try:
                    self.send_response(status)
                    self.send_header("content-type", "application/json")
                    self.send_header("content-length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client gave up (timeout test)
                self.close_connection = self.close_connection or outer.close_after_reply

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # shutdown() waits for serve_forever's next poll: at the default 0.5 s,
        # every server's exit cost up to half a second
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.01}, daemon=True)

    @staticmethod
    def echo_scores(scores):
        body = json.dumps({"scores": scores}).encode()
        return lambda captured: (200, body)

    @staticmethod
    def score_per_text(score: float = 0.5):
        def responder(captured):
            texts = json.loads(captured.body)["texts"]
            return 200, json.dumps({"scores": [score] * len(texts)}).encode()
        return responder

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
        return False
