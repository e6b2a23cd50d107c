"""Loopback search endpoint for the weigh-remote workload.

Run as a child process: ``python3 endpoint.py INDEX_JSON SEED FAIL_EVERY``.
It binds 127.0.0.1 on a free port, prints ``ready <port>`` and then serves
one request at a time:

- ``GET /search?q=<query>`` answers ``{"count": n}``, where n is the number
  of documents in the index holding every double-quoted term of the query.
  The first attempt of a seeded subset of queries (about one in FAIL_EVERY)
  gets HTTP 503; a query never fails twice.
- ``GET /stats`` answers the request and failure counters.
- ``GET /reset`` zeroes the counters and forgets which queries failed, so
  every timed command meets the same failures.

It exits when its standard input closes, so it never outlives the benchmark.
"""

from __future__ import annotations

import json
import os
import re
import selectors
import subprocess
import sys
import urllib.parse
import urllib.request
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer

QUOTED = re.compile(r'"([^"]*)"')


class Handler(BaseHTTPRequestHandler):
    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):
        state = self.server.state
        url = urllib.parse.urlsplit(self.path)
        if url.path == "/stats":
            return self._send(200, {"requests": state["requests"], "failed": state["failed"]})
        if url.path == "/reset":
            state.update(requests=0, failed=0, failed_queries=set())
            return self._send(200, {})
        if url.path != "/search":
            return self._send(404, {})
        query = urllib.parse.parse_qs(url.query).get("q", [""])[0]
        state["requests"] += 1
        if (
            zlib.crc32(f"{state['seed']}:{query}".encode()) % state["fail_every"] == 0
            and query not in state["failed_queries"]
        ):
            state["failed_queries"].add(query)
            state["failed"] += 1
            return self._send(503, {"error": "try again"})
        docs = None
        for term in QUOTED.findall(query):
            ids = state["terms"].get(term.strip().lower(), frozenset())
            docs = ids if docs is None else docs & ids
        self._send(200, {"count": len(docs or ())})


def serve(index_path: str, seed: str, fail_every: int) -> None:
    with open(index_path, encoding="utf-8") as handle:
        index = json.load(handle)
    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.state = {
        "terms": {t: frozenset(ids) for t, ids in index["terms"].items()},
        "seed": seed,
        "fail_every": fail_every,
        "requests": 0,
        "failed": 0,
        "failed_queries": set(),
    }
    selector = selectors.DefaultSelector()
    selector.register(server.socket, selectors.EVENT_READ, "http")
    selector.register(sys.stdin.fileno(), selectors.EVENT_READ, "stdin")
    print(f"ready {server.server_address[1]}", flush=True)
    try:
        while True:
            for key, _ in selector.select():
                if key.data == "http":
                    server.handle_request()
                elif not os.read(sys.stdin.fileno(), 4096):
                    return
    finally:
        selector.close()
        server.server_close()


class Endpoint:
    """Starts the endpoint as a child process and talks to its control paths."""

    def __init__(self, index_path, seed, fail_every: int):
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(index_path), str(seed), str(fail_every)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("ready "):
            self.close()
            raise RuntimeError(f"search endpoint failed to start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._get("/reset")

    def stats(self) -> dict:
        return self._get("/stats")

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()

    def __enter__(self) -> "Endpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2], int(sys.argv[3]))
