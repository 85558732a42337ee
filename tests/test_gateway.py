from __future__ import annotations

import base64
import contextlib
import os
import pathlib
import shutil
import socket
import sqlite3
import ssl
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from apio import gateway
from apio.gateway import (
    Backend,
    CachedBackend,
    ChatRequest,
    CredentialError,
    EXPLORE,
    GatewayError,
    INFER,
    OpenAIChatBackend,
    ScriptEntry,
    ScriptedBackend,
    request_key,
)
from apio.prompts import TASK_TEMPLATES, Prompt
from conftest import ChatServer, Reply, completion, scripted_pairs


def test_profiles_are_the_two_presets():
    assert (EXPLORE.temperature, EXPLORE.top_p) == (1.0, 1.0)
    assert (INFER.temperature, INFER.top_p) == (0.0, 0.1)


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest("", INFER)


# -- scripted ----------------------------------------------------------------


def test_scripted_pass_through():
    backend = scripted_pairs([("Generate a variation", "new text")])
    out = backend.complete(ChatRequest("Generate a variation of x", EXPLORE))
    assert out == "new text"
    assert backend.n_calls == 1


def test_scripted_queue_semantics():
    backend = scripted_pairs([("ask", "first"), ("ask", "second")])
    assert backend.complete(ChatRequest("ask me", EXPLORE)) == "first"
    assert backend.complete(ChatRequest("ask me", EXPLORE)) == "second"
    with pytest.raises(GatewayError, match="ask me"):
        backend.complete(ChatRequest("ask me", EXPLORE))


def test_scripted_unmatched_is_loud():
    backend = scripted_pairs([("improve", "x")])
    with pytest.raises(GatewayError):
        backend.complete(ChatRequest("something else entirely", EXPLORE))


def test_scripted_sticky_entries_repeat():
    backend = ScriptedBackend([ScriptEntry(match="go", response="yes", sticky=True)])
    for _ in range(5):
        assert backend.complete(ChatRequest("go now", INFER)) == "yes"


def test_scripted_plain_inference_entry_warns_once(caplog):
    backend = scripted_pairs([("go", "a"), ("go", "b"), ("go", "c")])
    backend.complete(ChatRequest("go", EXPLORE))
    assert not caplog.records
    with caplog.at_level("WARNING", logger="apio.gateway"):
        backend.complete(ChatRequest("go", INFER))
        backend.complete(ChatRequest("go", INFER))
    assert [r.getMessage() for r in caplog.records] == [
        "script entry 1 answers an inference request but is not sticky;"
        " with --workers > 1 the answer order is not deterministic"
    ]


def test_rewrite_rules_mode():
    """The rules rewrite the input of every task's footer, whatever its labels."""
    backend = ScriptedBackend([ScriptEntry(match="* ", mode="rewrite_rules", sticky=True)])
    for template in TASK_TEMPLATES.values():
        prompt = Prompt("", ('Replace "foo" with "bar".', 'Replace "x" with "y".'), template.footer)
        assert backend.complete(ChatRequest(prompt.render("a foo and an x"), INFER)) == "a bar and an y"


def test_echo_instruction_mode():
    backend = ScriptedBackend([ScriptEntry(match="variation", mode="echo_instruction", sticky=True)])
    prompt = "Generate a variation ...\n\nInstruction:Keep it simple.\nUpdated instruction:"
    assert backend.complete(ChatRequest(prompt, EXPLORE)) == "Keep it simple."


def test_scripted_consumed_state_restores():
    backend = scripted_pairs([("a", "1"), ("a", "2")])
    backend.complete(ChatRequest("a", EXPLORE))
    snapshot = backend.consumed_state()
    fresh = scripted_pairs([("a", "1"), ("a", "2")])
    fresh.restore_consumed(snapshot)
    assert fresh.complete(ChatRequest("a", EXPLORE)) == "2"


# -- cache -------------------------------------------------------------------


class CountingBackend(Backend):
    model = "test-model"

    def __init__(self, response="pong", delay=0.0):
        super().__init__()
        self.response = response
        self.delay = delay

    def _complete(self, request):
        if self.delay:
            time.sleep(self.delay)
        return self.response


def test_cache_hit_skips_inner(tmp_path):
    inner = CountingBackend()
    backend = CachedBackend(inner, tmp_path / "cache")
    request = ChatRequest("hello", INFER)
    assert backend.complete(request) == "pong"
    assert backend.complete(request) == "pong"
    assert inner.n_calls == 1
    assert backend.hits == 1


def test_cache_key_sensitive_to_every_field():
    base = ChatRequest("hello", INFER, attempt_tag=0)
    base_key = request_key(base, "m", 1024)
    variants = [
        request_key(ChatRequest("hello!", INFER), "m", 1024),
        request_key(ChatRequest("hello", INFER, attempt_tag=1), "m", 1024),
        request_key(base, "other", 1024),
        request_key(ChatRequest("hello", EXPLORE), "m", 1024),
        request_key(base, "m", 7),
    ]
    assert base_key not in variants
    assert len(set(variants)) == len(variants)


def test_cache_keys_of_existing_files_still_hit(tmp_path):
    # digests that earlier versions stored: a change of the key format
    # would turn every completions.sqlite3 already written into misses
    request = ChatRequest("héllo {x}", INFER)
    pinned = "ae2dc8a77887fe529b5873a85ece20d9628356770f2f065a22fd89e23871bc14"
    assert request_key(request, "stub", 1024) == pinned
    assert request_key(ChatRequest("héllo {x}", EXPLORE, attempt_tag=1), "gpt-4o-mini", 77) == (
        "a8b70905958d5aeb4e22dee415761ccac8eff2f1133797913237c0f60c72669e"
    )
    (tmp_path / "c").mkdir()
    with contextlib.closing(sqlite3.connect(tmp_path / "c" / "completions.sqlite3")) as db, db:
        db.execute("CREATE TABLE completions (key TEXT PRIMARY KEY, response_text TEXT NOT NULL)")
        db.execute("INSERT INTO completions VALUES (?, 'stored')", (pinned,))
    inner = CountingBackend()
    inner.model = "stub"
    assert CachedBackend(inner, tmp_path / "c").complete(request) == "stored"
    assert inner.n_calls == 0


def test_cache_persists_across_instances(tmp_path):
    request = ChatRequest("ping", INFER)
    first = CachedBackend(CountingBackend(), tmp_path / "c")
    assert first.complete(request) == "pong"
    second_inner = CountingBackend(response="different")
    second = CachedBackend(second_inner, tmp_path / "c")
    assert second.complete(request) == "pong"  # byte-identical, no inner call
    assert second_inner.n_calls == 0


def test_writers_sharing_a_cache_dir_keep_the_first_text(tmp_path):
    # caches on one directory stand in for processes: the second stores the
    # key while the first is waiting on its own inner call
    request = ChatRequest("shared", INFER)
    second = CachedBackend(CountingBackend(response="second"), tmp_path / "c")

    class Racing(CountingBackend):
        def _complete(self, request):
            assert second.complete(request) == "second"
            return "first"

    first = CachedBackend(Racing(), tmp_path / "c")
    assert first.complete(request) == "second"
    third = CachedBackend(CountingBackend(response="third"), tmp_path / "c")
    assert third.complete(request) == "second"
    assert (first.inner.n_calls, second.inner.n_calls, third.inner.n_calls) == (1, 1, 0)
    assert (first.hits, second.hits, third.hits) == (0, 0, 1)
    for backend in (first, second, third):
        backend.close()
    assert [p.name for p in (tmp_path / "c").iterdir()] == ["completions.sqlite3"]


def test_cache_is_readable_after_a_writer_exits_without_close(tmp_path):
    writer = (
        "import os, sys\n"
        "from apio.gateway import Backend, CachedBackend, ChatRequest, INFER\n"
        "class Upper(Backend):\n"
        "    model = 'test-model'\n"
        "    def _complete(self, request):\n"
        "        return request.text().upper()\n"
        "backend = CachedBackend(Upper(), sys.argv[1])\n"
        "for i in range(50):\n"
        "    backend.complete(ChatRequest(f'entry {i}', INFER))\n"
        "os._exit(0)\n"
    )
    src = pathlib.Path(gateway.__file__).resolve().parents[1]
    subprocess.run(
        [sys.executable, "-c", writer, str(tmp_path / "c")],
        check=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    # the entries are still in the write-ahead log, not yet in the file
    assert (tmp_path / "c" / "completions.sqlite3-wal").stat().st_size > 0
    inner = CountingBackend()
    reader = CachedBackend(inner, tmp_path / "c")
    assert [reader.complete(ChatRequest(f"entry {i}", INFER)) for i in range(50)] == [
        f"ENTRY {i}" for i in range(50)
    ]
    assert (inner.n_calls, reader.hits) == (0, 50)
    reader.close()


def test_close_leaves_only_the_database_and_reopens_on_use(tmp_path):
    inner = CountingBackend()
    backend = CachedBackend(inner, tmp_path / "c")
    backend.complete(ChatRequest("before", INFER))
    backend.close()
    assert [p.name for p in backend.cache_dir.iterdir()] == ["completions.sqlite3"]
    assert backend.complete(ChatRequest("before", INFER)) == "pong"  # a hit
    assert backend.complete(ChatRequest("after", INFER)) == "pong"  # a miss, stored
    backend.close()
    backend.close()
    assert (inner.n_calls, backend.hits) == (2, 1)
    assert CachedBackend(CountingBackend(response="other"), backend.cache_dir).complete(
        ChatRequest("after", INFER)
    ) == "pong"


def test_inflight_dedup(tmp_path):
    inner = CountingBackend(delay=0.15)
    backend = CachedBackend(inner, tmp_path / "c")
    request = ChatRequest("slow", INFER)
    results = []
    threads = [threading.Thread(target=lambda: results.append(backend.complete(request))) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == ["pong"] * 4
    assert inner.n_calls == 1


def test_inflight_entries_are_dropped_after_a_burst(tmp_path):
    inner = CountingBackend(delay=0.005)
    backend = CachedBackend(inner, tmp_path / "c")
    # 16 threads, 8 distinct keys, each sent 12 times
    requests = [ChatRequest(f"key {i % 8}", INFER) for i in range(96)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(backend.complete, requests, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert results == ["pong"] * 96
    assert backend._inflight == {}
    assert (inner.n_calls, backend.hits) == (8, 88)


def test_waiters_send_their_own_request_when_the_leader_fails(tmp_path):
    class Failing(CountingBackend):
        def __init__(self):
            super().__init__(delay=0.1)
            self.running = self.max_running = 0

        def _complete(self, request):
            with self._calls_lock:
                self.running += 1
                self.max_running = max(self.max_running, self.running)
            time.sleep(self.delay)
            with self._calls_lock:
                self.running -= 1
            raise GatewayError("down")

    inner = Failing()
    backend = CachedBackend(inner, tmp_path / "c")
    barrier = threading.Barrier(4)
    errors = []

    def call():
        barrier.wait(timeout=10)
        try:
            backend.complete(ChatRequest("doomed", INFER))
        except GatewayError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=call) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert len(errors) == 4
    # one request each, one at a time: the waiters held back while each ran
    assert (inner.n_calls, inner.max_running) == (4, 1)
    assert backend.hits == 0 and backend._inflight == {}


def test_cache_hits_counted_exactly_across_threads(tmp_path):
    backend = CachedBackend(CountingBackend(), tmp_path / "c")
    request = ChatRequest("shared", INFER)
    backend.complete(request)  # the one miss fills the entry
    n_threads, per_thread = 16, 50
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait(timeout=10)
        for _ in range(per_thread):
            backend.complete(request)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert backend.hits == n_threads * per_thread
    assert (backend.n_calls, backend.inner.n_calls) == (n_threads * per_thread + 1, 1)


# -- openai-compatible http ----------------------------------------------------


@pytest.fixture
def openai(chat_server):
    """Makes clients of ``chat_server`` (or of ``base_url``) and closes
    them after the test."""
    made = []

    def make(base_url=chat_server.url, **kwargs) -> OpenAIChatBackend:
        kwargs = {"model": "test-model", "api_key": "sk-test", "backoff_base_s": 0.0, **kwargs}
        made.append(OpenAIChatBackend(base_url=base_url, **kwargs))
        return made[-1]

    yield make
    for backend in made:
        backend.close()


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_openai_success_payload(chat_server, openai):
    chat_server.script = [Reply(body=completion("fixed text"))]
    out = openai().complete(ChatRequest("fix this", INFER))
    assert out == "fixed text"
    sent = chat_server.requests[0]
    assert sent["path"] == "/v1/chat/completions"
    assert sent["json"]["model"] == "test-model"
    assert sent["json"]["temperature"] == 0.0
    assert sent["json"]["top_p"] == 0.1
    assert sent["json"]["messages"] == [{"role": "user", "content": "fix this"}]
    assert sent["headers"]["Authorization"] == "Bearer sk-test"
    assert sent["headers"]["Content-Type"] == "application/json"


def test_openai_auth_failure_no_retry(chat_server, openai):
    chat_server.script = [Reply(status=401), Reply(status=403)]
    backend = openai()
    for status in (401, 403):
        with pytest.raises(CredentialError, match=str(status)):
            backend.complete(ChatRequest("x", INFER))
    assert len(chat_server.requests) == 2


def test_openai_retries_transients_then_succeeds(chat_server, openai):
    chat_server.script = [Reply(status=429), Reply(status=503), Reply(body=completion("done"))]
    assert openai(retry_max=5).complete(ChatRequest("x", INFER)) == "done"
    assert len(chat_server.requests) == 3


def test_openai_retry_budget_exhausted(chat_server, openai):
    chat_server.fallback = Reply(status=500)
    with pytest.raises(GatewayError, match="after 3 attempts"):
        openai(retry_max=2).complete(ChatRequest("x", INFER))
    assert len(chat_server.requests) == 3


def test_openai_unexpected_status_is_error_with_body(chat_server, openai):
    chat_server.script = [Reply(status=404, body="x" * 300)]
    with pytest.raises(GatewayError, match="unexpected status 404") as info:
        openai().complete(ChatRequest("x", INFER))
    assert str(info.value).endswith(": " + "x" * 200)
    assert len(chat_server.requests) == 1


@pytest.mark.parametrize(
    "body",
    ["not json", [], {"choices": []}, {"choices": [{"text": "t"}]}],
    ids=["not-json", "list", "no-choices", "no-message"],
)
def test_openai_malformed_payload_is_error(chat_server, openai, body):
    chat_server.script = [Reply(body=body)]
    with pytest.raises(GatewayError, match="malformed"):
        openai().complete(ChatRequest("x", INFER))
    assert len(chat_server.requests) == 1


def test_openai_empty_completion_is_error(chat_server, openai):
    chat_server.script = [Reply(body=completion(""))]
    with pytest.raises(GatewayError, match="empty"):
        openai().complete(ChatRequest("x", INFER))


def test_openai_max_tokens_override(chat_server, openai):
    openai(max_tokens=77).complete(ChatRequest("x", INFER))
    assert chat_server.requests[0]["json"]["max_tokens"] == 77


def test_openai_connection_per_thread(chat_server, openai):
    backend = openai()
    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = list(pool.map(backend.complete, [ChatRequest(f"x{i}", INFER) for i in range(8)]))
    assert outputs == ["ok"] * 8
    assert len(chat_server.requests) == 8
    ports = {r["port"] for r in chat_server.requests}
    assert len(ports) <= 2
    # close() reaches the pool threads' connections too, and a later call reopens
    backend.close()
    chat_server.wait_closed(len(ports))
    assert backend.complete(ChatRequest("y", INFER)) == "ok"


def test_openai_replaces_connection_closed_while_idle(chat_server, openai, monkeypatch):
    sleeps = []
    monkeypatch.setattr(gateway, "time", SimpleNamespace(sleep=sleeps.append))
    chat_server.script = [Reply(body=completion("first"), close=True), Reply(body=completion("second"))]
    backend = openai()
    assert backend.complete(ChatRequest("x", INFER)) == "first"
    chat_server.wait_closed(1)
    assert backend.complete(ChatRequest("y", INFER)) == "second"
    # one request per call, on a new connection, and no backoff spent
    first, second = chat_server.requests
    assert first["port"] != second["port"]
    assert sleeps == []


@pytest.mark.parametrize("failure", [Reply(drop=True), Reply(delay=0.5)], ids=["dropped", "timeout"])
def test_openai_transport_error_reconnects(chat_server, openai, monkeypatch, failure):
    chat_server.script = [failure, Reply(body=completion("again"))]
    backend = openai(retry_max=1, timeout_s=0.2)
    sleeps = []
    monkeypatch.setattr(gateway, "time", SimpleNamespace(sleep=sleeps.append))
    assert backend.complete(ChatRequest("x", INFER)) == "again"
    first, second = chat_server.requests
    assert first["port"] != second["port"]
    assert sleeps == [0.0]


def test_openai_unreachable_endpoint_exhausts_budget():
    backend = OpenAIChatBackend(
        base_url=f"http://127.0.0.1:{_closed_port()}/v1", model="m", retry_max=1, backoff_base_s=0.0
    )
    with pytest.raises(GatewayError, match="after 2 attempts"):
        backend.complete(ChatRequest("x", INFER))


def test_openai_http_proxy_gets_absolute_url_and_credentials(chat_server, openai, monkeypatch):
    proxy = chat_server.url.removesuffix("/v1").replace("http://", "http://user:p%40ss@")
    monkeypatch.setenv("HTTP_PROXY", proxy)
    assert openai(base_url="http://llm.test/v1").complete(ChatRequest("x", INFER)) == "ok"
    sent = chat_server.requests[0]
    assert sent["path"] == "http://llm.test/v1/chat/completions"
    assert sent["headers"]["Host"] == "llm.test"
    assert sent["headers"]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_openai_https_goes_through_connect_tunnel(chat_server, openai, monkeypatch):
    proxy = chat_server.url.removesuffix("/v1").replace("http://", "http://user:pw@")
    monkeypatch.setenv("HTTPS_PROXY", proxy)
    chat_server.script = [Reply(status=407, close=True)]
    with pytest.raises(GatewayError, match="407"):
        openai(base_url="https://llm.test/v1", retry_max=0).complete(ChatRequest("x", INFER))
    sent = chat_server.requests[0]
    assert (sent["method"], sent["path"]) == ("CONNECT", "llm.test:443")
    assert sent["headers"]["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:pw").decode()


def _pipe(source: socket.socket, sink: socket.socket) -> None:
    """Copy ``source``'s bytes to ``sink`` until ``source`` ends, then end ``sink``'s side."""
    with contextlib.suppress(OSError):
        while data := source.recv(65536):
            sink.sendall(data)
    with contextlib.suppress(OSError):
        sink.shutdown(socket.SHUT_WR)


def _relay_one_tunnel(listener: socket.socket, heads: list[bytes]) -> None:
    """Be a CONNECT proxy for one client of ``listener``: keep its request
    head in ``heads``, open the tunnel and relay bytes both ways until each
    side has ended."""
    client, _ = listener.accept()
    with client:
        client.settimeout(10)
        head = b""
        while b"\r\n\r\n" not in head:
            if not (chunk := client.recv(4096)):
                return
            head += chunk
        heads.append(head)
        host, port = head.split()[1].decode().rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            client.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
            back = threading.Thread(target=_pipe, args=(upstream, client))
            back.start()
            _pipe(client, upstream)
            back.join(timeout=10)


def test_openai_https_handshake_through_connect_tunnel(tmp_path, no_proxy_env):
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("no openssl binary to make a certificate with")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1", "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True,
    )
    # the client trusts only this certificate
    no_proxy_env.setenv("SSL_CERT_FILE", str(cert))
    context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    context.load_cert_chain(cert, key)
    context.options |= ssl.OP_IGNORE_UNEXPECTED_EOF  # the relay ends the tunnel without a TLS goodbye
    server = ChatServer()
    server.socket = context.wrap_socket(server.socket, server_side=True)
    serving = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)
    heads: list[bytes] = []
    relay = threading.Thread(target=_relay_one_tunnel, args=(listener, heads))
    port = server.server_address[1]
    no_proxy_env.setenv("HTTPS_PROXY", f"http://user:pw@127.0.0.1:{listener.getsockname()[1]}")
    backend = OpenAIChatBackend(f"https://127.0.0.1:{port}/v1", "test-model", api_key="sk-test", retry_max=0)
    serving.start()
    relay.start()
    try:
        assert backend.complete(ChatRequest("x", INFER)) == "ok"
        backend.close()
        server.wait_closed(1)
        relay.join(timeout=10)
        assert not relay.is_alive()
    finally:
        backend.close()
        listener.close()
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    assert heads[0].startswith(f"CONNECT 127.0.0.1:{port} HTTP/".encode())
    assert b"Proxy-Authorization: Basic " + base64.b64encode(b"user:pw") in heads[0]
    sent = server.requests[0]
    assert (sent["method"], sent["path"]) == ("POST", "/v1/chat/completions")
    assert sent["headers"]["Authorization"] == "Bearer sk-test"


def test_openai_no_proxy_bypasses_proxy(chat_server, openai, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
    monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
    assert openai().complete(ChatRequest("x", INFER)) == "ok"
    sent = chat_server.requests[0]
    assert sent["path"] == "/v1/chat/completions"
    assert "Proxy-Authorization" not in sent["headers"]


@pytest.mark.parametrize("no_proxy", ["127.0.0.0/8", "llm.test, 10.0.0.0/8 ,127.0.0.1/32", "::1/128,127.0.0.0/16"])
def test_openai_no_proxy_network_bypasses_proxy(chat_server, openai, monkeypatch, no_proxy):
    # the proxy's port is closed: dialling it would exhaust the retry budget
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
    monkeypatch.setenv("NO_PROXY", no_proxy)
    assert openai(retry_max=0).complete(ChatRequest("x", INFER)) == "ok"
    assert chat_server.requests[0]["path"] == "/v1/chat/completions"


@pytest.mark.parametrize("no_proxy", ["10.0.0.0/8", "127.0.0.0/33", "not-a-network/8", ""])
def test_openai_no_proxy_network_elsewhere_keeps_proxy(no_proxy_env, no_proxy):
    no_proxy_env.setenv("HTTP_PROXY", "http://proxy.test:3128")
    no_proxy_env.setenv("NO_PROXY", no_proxy)
    backend = OpenAIChatBackend(base_url="http://127.0.0.1:8000/v1", model="m")
    assert (backend._proxy.hostname, backend._proxy.port) == ("proxy.test", 3128)
    assert backend._target == "http://127.0.0.1:8000/v1/chat/completions"


def test_openai_refuses_proxy_it_cannot_speak(no_proxy_env):
    no_proxy_env.setenv("HTTPS_PROXY", "https://proxy.test:8443")
    with pytest.raises(ValueError, match="only http:// proxies"):
        OpenAIChatBackend(base_url="https://llm.test/v1", model="m")
