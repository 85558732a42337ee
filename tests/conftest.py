from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from apio.corpus import SamplePair
from apio.gateway import Backend, ChatRequest, GenerationProfile, ScriptedBackend, ScriptEntry


# the engine tests' scoring pool: one thread, as with ``--workers 1``
SEQUENTIAL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="apio-test")


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance-criteria tests")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        label = getattr(item.function, "_criterion", None)
        if label:
            verdict = "PASS" if report.passed else "FAIL"
            print(f"[acceptance] {label}: {verdict} ({report.duration:.2f}s)")


@pytest.fixture
def toy_pairs() -> list[SamplePair]:
    rows = [
        ("the foo is big", "the bar is big"),
        ("a foo in a box", "a bar in a box"),
        ("foo here now", "bar here now"),
        ("one foo two foo", "one bar two bar"),
        ("my foo likes tea", "my bar likes tea"),
        ("this foo that foo", "this bar that bar"),
        ("foo goes home", "bar goes home"),
        ("every foo counts", "every bar counts"),
    ]
    return [
        SamplePair(id=f"toy-{i}", source=src, references=(ref,))
        for i, (src, ref) in enumerate(rows)
    ]


def scripted_pairs(pairs: list[tuple[str, str]]) -> ScriptedBackend:
    """Backend answering from untagged (match, response) script entries."""
    return ScriptedBackend([ScriptEntry(match=m, response=r) for m, r in pairs])


def rewrite_backend(extra: list[ScriptEntry] | None = None) -> ScriptedBackend:
    """Backend whose inference applies bullet rewrite rules literally."""
    entries = list(extra or [])
    entries.append(ScriptEntry(match="\nOutput:", mode="rewrite_rules"))
    return ScriptedBackend(entries)


class RecordingBackend(Backend):
    """Passes requests to ``inner`` and keeps each one in ``requests``, in
    arrival order."""

    def __init__(self, inner: Backend) -> None:
        super().__init__()
        self.inner = inner
        self.requests: list[ChatRequest] = []

    def _complete(self, request: ChatRequest) -> str:
        self.requests.append(request)
        return self.inner.complete(request)


# -- network -------------------------------------------------------------------

PROXY_VARIABLES = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def no_network(monkeypatch):
    """Fail any connection the test opens; ``calls["n"]`` counts attempts."""
    calls = {"n": 0}

    def guard(*args, **kwargs):
        calls["n"] += 1
        raise AssertionError("network connection attempted during an offline test")

    monkeypatch.setattr(http.client.HTTPConnection, "connect", guard)
    return calls


def completion(content: str) -> dict:
    """A chat-completions response body carrying ``content``."""
    return {"choices": [{"message": {"content": content}}]}


@dataclass
class Reply:
    """One scripted answer: ``body`` is sent as JSON unless it is a string,
    with ``headers`` besides the content type and length, after ``delay``
    seconds. ``close`` closes the connection after replying, without
    saying so in a header; ``drop`` closes it without replying."""

    status: int = 200
    body: object = field(default_factory=lambda: completion("ok"))
    headers: dict[str, str] = field(default_factory=dict)
    close: bool = False
    drop: bool = False
    delay: float = 0.0


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # the headers and the body go out in two writes; with Nagle's algorithm
    # the body would wait for the client's delayed ACK of the headers
    disable_nagle_algorithm = True
    server: "ChatServer"

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._reply(self.server.answer(self, body))

    def do_CONNECT(self) -> None:
        # a proxy's tunnel request, answered from the script; a tunnel that
        # carries TLS is tested with a relay in test_gateway.py
        self._reply(self.server.answer(self, None))

    def _reply(self, reply: Reply) -> None:
        time.sleep(reply.delay)
        if reply.drop:
            self.close_connection = True
            return
        data = (reply.body if isinstance(reply.body, str) else json.dumps(reply.body)).encode("utf-8")
        self.send_response(reply.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in reply.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        self.close_connection = reply.close


class ChatServer(ThreadingHTTPServer):
    """A chat-completions server on 127.0.0.1 that answers from ``script``
    in order and then with ``fallback``, or with ``respond(request)`` when
    that is set. Each request's method, path, headers, body (as sent and
    as parsed JSON) and client port go into ``requests``; ``closed``
    counts the connections it has closed."""

    daemon_threads = True
    # handler threads wait on kept-alive connections; do not join them
    block_on_close = False
    # a client's pool opens a connection per thread at once; a burst beyond
    # socketserver's default backlog of 5 can stall a connect for a second
    request_queue_size = 64

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.script: list[Reply] = []
        self.fallback = Reply()
        self.respond: Callable[[dict], Reply] | None = None  # called under the lock
        self.requests: list[dict] = []
        self.closed = 0
        self.changed = threading.Condition()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def answer(self, handler: _ChatHandler, body: bytes | None) -> Reply:
        with self.changed:
            self.requests.append(
                {
                    "method": handler.command,
                    "path": handler.path,
                    "headers": dict(handler.headers),
                    "body": body,
                    "json": None if body is None else json.loads(body),
                    "port": handler.client_address[1],
                }
            )
            if self.script:
                return self.script.pop(0)
            return self.respond(self.requests[-1]) if self.respond else self.fallback

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self.changed:
            self.closed += 1
            self.changed.notify_all()

    def wait_closed(self, n: int) -> None:
        with self.changed:
            assert self.changed.wait_for(lambda: self.closed >= n, timeout=10)

    def handle_error(self, request, client_address) -> None:
        # clients closing their end mid-request is part of the tests
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def answered_by(backend: ScriptedBackend) -> Callable[[dict], Reply]:
    """A ``ChatServer.respond`` that answers each request as ``backend``
    answers its user message and generation profile. The body carries no
    attempt tag, so the request has tag 0, and the answer is a function of
    the body."""

    def respond(request: dict) -> Reply:
        sent = request["json"]
        profile = GenerationProfile(sent["temperature"], sent["top_p"])
        return Reply(body=completion(backend.complete(ChatRequest(sent["messages"][0]["content"], profile))))

    return respond


@pytest.fixture
def no_proxy_env(monkeypatch):
    """Clear the proxy variables, in lower and upper case; the monkeypatch
    is returned for setting some of them again."""
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


@pytest.fixture
def chat_server(no_proxy_env):
    """A running ``ChatServer``, reached directly, not through a proxy."""
    server = ChatServer()
    # a short poll interval keeps shutdown from waiting half a second
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
