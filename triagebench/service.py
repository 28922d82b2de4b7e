"""Loopback scoring service for the remote_hosted workload.

It speaks the documented remote wire contract (POST /v1/classify with
{"task": ..., "texts": [...]}, answered by {"scores": [...]}) and hosts one
baseline model per tier. Following the weights-only sharing of the paper, it
reads the published RTBL model file and scores with its own implementation of
the documented CRC-32 unigram+bigram logistic score; it imports nothing from
the program under test.

Every reply, headers and body, leaves in a single write. A stock
http.server reply sends the headers and the body separately, and a
keep-alive client then stalls on delayed ACK for tens of milliseconds per
request.

Admin routes, used by the benchmark between timed operations:
  POST /load   {"t1": path, "t2": path}  (re)load the hosted models
  POST /drain  -> counters since the last drain plus one log entry per
               classify request (task, text count, longest text in tokens,
               scores sent, service seconds)

Run: python3 service.py  -> prints "READY <port>" once listening on
127.0.0.1; exits on SIGTERM or when its standard input closes.
"""

from __future__ import annotations

import json
import math
import signal
import struct
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_HEADER = struct.Struct("<4sIQqIddddd")
_MAX_LOGIT = 35.0


class HostedModel:
    """A baseline model read from its RTBL file, as the format documents it."""

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            raw = fh.read()
        magic, version, dim, _seed, _epochs, _lr, _l2, bias, _loss, _ = _HEADER.unpack_from(raw)
        if magic != b"RTBL" or version != 1:
            raise ValueError(f"{path}: not an RTBL v1 model file")
        if len(raw) != _HEADER.size + 8 * dim:
            raise ValueError(f"{path}: size does not match feature_dim {dim}")
        self.mask = dim - 1
        self.bias = bias
        self.weights = list(struct.unpack_from(f"<{dim}d", raw, _HEADER.size))

    def score(self, text: str) -> float:
        tokens = text.split()
        mask = self.mask
        feats: dict[int, float] = {}
        for tok in tokens:
            idx = zlib.crc32(b"u\x00" + tok.encode("utf-8")) & mask
            feats[idx] = feats.get(idx, 0.0) + 1.0
        for a, b in zip(tokens, tokens[1:]):
            idx = zlib.crc32(b"b\x00" + a.encode("utf-8") + b"\x1f" + b.encode("utf-8")) & mask
            feats[idx] = feats.get(idx, 0.0) + 1.0
        w = self.weights
        z = self.bias + sum(w[i] * v for i, v in feats.items())
        z = max(min(z, _MAX_LOGIT), -_MAX_LOGIT)
        return 1.0 / (1.0 + math.exp(-z))


class ServiceState:
    def __init__(self):
        self.lock = threading.Lock()
        self.models: dict[str, HostedModel] = {}
        self.log: list[dict] = []
        self.counters = self._zero()

    @staticmethod
    def _zero() -> dict:
        return {"requests": 0, "connections": 0, "service_s": 0.0,
                "bytes_received": 0, "bytes_sent": 0}

    def drain(self) -> dict:
        with self.lock:
            out = {"counters": self.counters, "log": self.log}
            self.counters, self.log = self._zero(), []
        return out


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: ServiceState  # set on the subclass built in serve()

    def setup(self):
        super().setup()
        self.counted_connection = False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, reason: str, body: bytes) -> None:
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self.wfile.write(head + body)  # one write: no delayed-ACK stall

    def _body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length", 0)))

    def do_POST(self):
        if self.path == "/v1/classify":
            self._classify()
        elif self.path == "/load":
            paths = json.loads(self._body())
            models = {task: HostedModel(p) for task, p in paths.items()}
            with self.state.lock:
                self.state.models.update(models)
            self._reply(200, "OK", b"{}")
        elif self.path == "/drain":
            self._body()
            self._reply(200, "OK", json.dumps(self.state.drain()).encode("utf-8"))
        else:
            self._reply(404, "Not Found", b"{}")

    def _classify(self):
        body = self._body()
        start = time.perf_counter()
        req = json.loads(body)
        model = self.state.models[req["task"]]
        texts = req["texts"]
        scores = [model.score(t) for t in texts]
        out = json.dumps({"scores": scores}, separators=(",", ":")).encode("utf-8")
        elapsed = time.perf_counter() - start
        state = self.state
        with state.lock:
            c = state.counters
            c["requests"] += 1
            if not self.counted_connection:
                self.counted_connection = True
                c["connections"] += 1
            c["service_s"] += elapsed
            c["bytes_received"] += len(body)
            c["bytes_sent"] += len(out)
            state.log.append({"task": req["task"], "n": len(texts),
                              "max_tokens": max((len(t.split()) for t in texts), default=0),
                              "scores": scores})
        self._reply(200, "OK", out)


def serve() -> None:
    state = ServiceState()
    handler = type("BoundHandler", (Handler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True

    def stop(*_):
        threading.Thread(target=server.shutdown, daemon=True).start()

    def watch_stdin():
        sys.stdin.read()  # returns when the parent closes the pipe or exits
        stop()

    signal.signal(signal.SIGTERM, stop)
    threading.Thread(target=watch_stdin, daemon=True).start()
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


if __name__ == "__main__":
    serve()
