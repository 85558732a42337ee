from __future__ import annotations

import base64
import contextlib
import http.client
import itertools
import json
import logging
import os
import pathlib
import random
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
from apio.cli import main
from apio.config import BackendConfig
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


def test_calls_are_counted_by_purpose_and_step():
    backend = scripted_pairs([("", "answer")] * 4)
    for purpose, step in [("induce", 1), ("score", 1), ("induce", 1), ("improve", 3)]:
        backend.complete(ChatRequest("x", EXPLORE, purpose=purpose, step=step))
    assert backend.calls == {("induce", 1): 2, ("score", 1): 1, ("improve", 3): 1}


# -- scripted ----------------------------------------------------------------


def test_scripted_pass_through():
    backend = scripted_pairs([("Generate a variation", "new text")])
    out = backend.complete(ChatRequest("Generate a variation of x", EXPLORE))
    assert out == "new text"
    assert backend.calls.total() == 1


def test_scripted_tagged_entry_answers_only_its_tag():
    backend = ScriptedBackend([
        ScriptEntry(match="ask", response="tag 3", attempt_tag=3),
        ScriptEntry(match="other", response="other"),
        ScriptEntry(match="ask", response="any tag"),
    ])
    assert backend.complete(ChatRequest("ask me", EXPLORE, attempt_tag=3)) == "tag 3"
    # another tag, or content the entry does not match, falls through to the next match
    for request in (ChatRequest("ask me", EXPLORE), ChatRequest("ask me", EXPLORE, attempt_tag=4)):
        assert backend.complete(request) == "any tag"
    assert backend.complete(ChatRequest("other", EXPLORE, attempt_tag=3)) == "other"
    with pytest.raises(GatewayError, match="no script entry matches request starting 'neither'"):
        backend.complete(ChatRequest("neither", EXPLORE, attempt_tag=3))


def test_scripted_unmatched_is_loud():
    backend = scripted_pairs([("improve", "x")])
    with pytest.raises(GatewayError):
        backend.complete(ChatRequest("something else entirely", EXPLORE))


def test_scripted_entry_answers_any_number_of_requests():
    backend = ScriptedBackend([
        ScriptEntry(match="go", response="tagged", attempt_tag=1),
        ScriptEntry(match="go", response="untagged"),
    ])
    for _ in range(5):
        assert backend.complete(ChatRequest("go now", EXPLORE, attempt_tag=1)) == "tagged"
        assert backend.complete(ChatRequest("go now", EXPLORE)) == "untagged"
    assert backend.calls.total() == 10


def test_scripted_inference_reuses_an_entry_without_warning(caplog):
    backend = ScriptedBackend([
        ScriptEntry(match="go", response="tagged", attempt_tag=1),
        ScriptEntry(match="go", response="untagged"),
    ])
    with caplog.at_level("WARNING", logger="apio.gateway"):
        for profile in (EXPLORE, INFER, EXPLORE, INFER):
            assert backend.complete(ChatRequest("go now", profile, attempt_tag=1)) == "tagged"
            assert backend.complete(ChatRequest("go now", profile)) == "untagged"
    assert not caplog.records
    assert backend.calls.total() == 8


def test_scripted_answers_do_not_depend_on_order_or_threads():
    """Each request gets the answer that a serial pass gives it when a mix
    of EXPLORE and INFER requests, repeats among them, is sent in a
    shuffled order from 8 threads."""
    entries = [ScriptEntry(match="Suggest", response=f"improve {tag}", attempt_tag=tag) for tag in (4, 5, 6)]
    entries += [
        ScriptEntry(match="Suggest", response="improve fallback"),
        ScriptEntry(match="Generate a variation", mode="echo_instruction"),
        ScriptEntry(match="\nOutput:", mode="rewrite_rules"),
    ]
    footer = TASK_TEMPLATES["generic"].footer
    requests = [ChatRequest(f"Suggest new instruction for parent {p}", EXPLORE, attempt_tag=tag, purpose="improve")
                for p in range(3) for tag in range(4, 8)]
    requests += [ChatRequest(f"Generate a variation\n\nInstruction:Rule {i}.\nUpdated instruction:", EXPLORE,
                             attempt_tag=1, purpose="rephrase") for i in range(4)]
    requests += [ChatRequest(Prompt("", ('Replace "a" with "b".',), footer).render(f"a {i}"), INFER) for i in range(8)]
    requests += [requests[1]] * 16  # one (content, attempt_tag), sent again and again
    serial_backend = ScriptedBackend(entries)
    serial = [serial_backend.complete(request) for request in requests]
    assert serial.count("improve 5") == 3 + 16 and serial.count("improve fallback") == 3
    assert "Rule 3." in serial and "b 7" in serial
    order = list(range(len(requests)))
    random.Random(26).shuffle(order)
    backend = ScriptedBackend(entries)
    with ThreadPoolExecutor(max_workers=8) as pool:
        answers = dict(zip(order, pool.map(lambda i: backend.complete(requests[i]), order)))
    assert [answers[i] for i in range(len(requests))] == serial


def test_rewrite_rules_mode():
    """The rules rewrite the input of every task's footer, whatever its labels."""
    backend = ScriptedBackend([ScriptEntry(match="* ", mode="rewrite_rules")])
    for template in TASK_TEMPLATES.values():
        prompt = Prompt("", ('Replace "foo" with "bar".', 'Replace "x" with "y".'), template.footer)
        assert backend.complete(ChatRequest(prompt.render("a foo and an x"), INFER)) == "a bar and an y"


def test_echo_instruction_mode():
    backend = ScriptedBackend([ScriptEntry(match="variation", mode="echo_instruction")])
    prompt = "Generate a variation ...\n\nInstruction:Keep it simple.\nUpdated instruction:"
    assert backend.complete(ChatRequest(prompt, EXPLORE)) == "Keep it simple."


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


def _hits(backend: CachedBackend) -> int:
    return backend.calls.total() - backend.inner.calls.total()


def test_cache_hit_skips_inner(tmp_path):
    inner = CountingBackend()
    backend = CachedBackend(inner, tmp_path / "cache")
    request = ChatRequest("hello", INFER)
    assert backend.complete(request) == "pong"
    assert backend.complete(request) == "pong"
    assert inner.calls.total() == 1
    assert _hits(backend) == 1


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


def test_purpose_and_step_reach_neither_the_cache_key_nor_the_wire(chat_server, openai):
    plain = ChatRequest("hello", EXPLORE, attempt_tag=3)
    labelled = ChatRequest("hello", EXPLORE, attempt_tag=3, purpose="rephrase", step=7)
    assert request_key(plain, "m", 1024) == request_key(labelled, "m", 1024)
    backend = openai()
    backend.complete(plain)
    backend.complete(labelled)
    first, second = (sent["body"] for sent in chat_server.requests)
    assert first == second


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
    assert inner.calls.total() == 0


def test_cache_persists_across_instances(tmp_path):
    request = ChatRequest("ping", INFER)
    first = CachedBackend(CountingBackend(), tmp_path / "c")
    assert first.complete(request) == "pong"
    second_inner = CountingBackend(response="different")
    second = CachedBackend(second_inner, tmp_path / "c")
    assert second.complete(request) == "pong"  # byte-identical, no inner call
    assert second_inner.calls.total() == 0


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
    assert (first.inner.calls.total(), second.inner.calls.total(), third.inner.calls.total()) == (1, 1, 0)
    assert (_hits(first), _hits(second), _hits(third)) == (0, 0, 1)
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
        "        return request.content.upper()\n"
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
    assert (inner.calls.total(), _hits(reader)) == (0, 50)
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
    assert (inner.calls.total(), _hits(backend)) == (2, 1)
    assert CachedBackend(CountingBackend(response="other"), backend.cache_dir).complete(
        ChatRequest("after", INFER)
    ) == "pong"


def test_a_lookup_that_fails_is_a_miss(tmp_path, caplog):
    script = [("first", "one"), ("second", "two"), ("third", "three"), ("fourth", "four")]
    backend = CachedBackend(scripted_pairs(script), tmp_path)
    assert backend.complete(ChatRequest("first", INFER)) == "one"  # opens the writer too
    with contextlib.closing(sqlite3.connect(tmp_path / "completions.sqlite3", isolation_level=None)) as db:
        db.execute("DROP TABLE completions")
    with caplog.at_level(logging.WARNING, logger="apio.gateway"):
        assert backend.complete(ChatRequest("second", INFER)) == "two"
        # both connections were reopened, which made the table again: stored, then a hit
        assert backend.complete(ChatRequest("third", INFER)) == "three"
        assert backend.complete(ChatRequest("third", INFER)) == "three"
    assert backend.inner.calls.total() == 3
    assert _cache_warnings(caplog) == [
        "completion cache lookup failed: no such table: completions",
        "completion cache write failed: no such table: completions",
    ]
    # a connection that cannot be reopened is a miss and a failed write too
    backend.close()
    cache_file = tmp_path / "completions.sqlite3"
    cache_file.unlink()
    cache_file.mkdir()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="apio.gateway"):
        assert backend.complete(ChatRequest("fourth", INFER)) == "four"
    assert _cache_warnings(caplog) == [
        f"completion cache {step} failed: cache file {cache_file} is not a usable SQLite database:"
        " unable to open database file"
        for step in ("lookup", "write")
    ]


def _cache_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("completion cache")]


class Numbering(Backend):
    """Answers every request anew, ``<content> <n>``, after ``barrier``
    when one is given."""

    model = "test-model"

    def __init__(self, barrier: threading.Barrier | None = None):
        super().__init__()
        self.barrier = barrier
        self.numbers = itertools.count()

    def _complete(self, request):
        if self.barrier is not None:
            self.barrier.wait(timeout=10)
        with self._calls_lock:
            return f"{request.content} {next(self.numbers)}"


def _stored(cache_dir: pathlib.Path) -> list[tuple[str, str]]:
    with contextlib.closing(sqlite3.connect(cache_dir / "completions.sqlite3")) as db:
        return db.execute("SELECT key, response_text FROM completions").fetchall()


def test_identical_misses_that_overlap_all_get_the_first_text_stored(tmp_path):
    """Callers that miss one key at once each send their request, and all
    of them get the text stored first, the one row kept; in a burst over
    a few keys every caller gets its key's stored text."""
    n = 8
    request = ChatRequest("same", INFER)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # every caller has looked up and missed before the first answer is stored
        at_once = CachedBackend(Numbering(threading.Barrier(n)), tmp_path / "at-once")
        with ThreadPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(at_once.complete, [request] * n, timeout=60))
        burst = CachedBackend(Numbering(), tmp_path / "burst")
        # 16 threads, 8 distinct keys, each sent 12 times
        requests = [ChatRequest(f"key {i % 8}", INFER) for i in range(96)]
        with ThreadPoolExecutor(max_workers=16) as pool:
            answers = list(pool.map(burst.complete, requests, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert at_once.inner.calls.total() == n and _hits(at_once) == 0
    assert results == [results[0]] * n and results[0].startswith("same ")
    assert _stored(tmp_path / "at-once") == [(request_key(request, "test-model", Backend.max_tokens), results[0])]
    stored = dict(_stored(tmp_path / "burst"))
    assert len(stored) == 8
    assert answers == [stored[request_key(r, "test-model", Backend.max_tokens)] for r in requests]
    assert all(answer.startswith(f"{r.content} ") for answer, r in zip(answers, requests))
    for backend in (at_once, burst):
        backend.close()


def test_each_cache_connection_recovers_on_its_own(tmp_path, caplog):
    """A failed statement closes only its own connection, which its next
    use reopens: lookups fail while writes still store, and the other way
    round."""
    backend = CachedBackend(Numbering(), tmp_path / "c")
    first, second = ChatRequest("first", INFER), ChatRequest("second", INFER)

    def failures() -> list[str]:
        return [message.partition(":")[0] for message in _cache_warnings(caplog)]

    with caplog.at_level(logging.WARNING, logger="apio.gateway"):
        backend._db.close()
        assert backend.complete(first) == "first 0"  # a miss, stored by the writer
        assert failures() == ["completion cache lookup failed"]
        assert backend.complete(first) == "first 0"  # a hit on the reopened lookup connection
        caplog.clear()
        backend._writer.close()
        assert backend.complete(second) == "second 1"  # the write fails, the answer is kept
        assert failures() == ["completion cache write failed"]
        assert backend.complete(second) == "second 2"  # a miss again, stored by the reopened writer
        assert backend.complete(second) == "second 2"  # a hit
        assert failures() == ["completion cache write failed"]
    assert (backend.inner.calls.total(), _hits(backend)) == (3, 2)
    assert sorted(text for _, text in _stored(backend.cache_dir)) == ["first 0", "second 2"]
    backend.close()


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
    assert _hits(backend) == n_threads * per_thread
    assert (backend.calls.total(), backend.inner.calls.total()) == (n_threads * per_thread + 1, 1)


def test_a_write_waiting_for_the_lock_does_not_stall_lookups(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(gateway, "CACHE_BUSY_TIMEOUT_S", 1.0)
    answered = threading.Event()

    class Signalling(CountingBackend):
        def _complete(self, request):
            answered.set()
            return super()._complete(request)

    backend = CachedBackend(Signalling(), tmp_path / "c")
    backend.complete(ChatRequest("stored", INFER))
    answered.clear()
    with contextlib.closing(sqlite3.connect(backend.cache_dir / "completions.sqlite3", isolation_level=None)) as db:
        db.execute("BEGIN IMMEDIATE")  # another process's write lock
        writer = threading.Thread(target=backend.complete, args=(ChatRequest("new", INFER),))
        writer.start()
        assert answered.wait(timeout=10)
        time.sleep(0.1)  # the writer is now waiting out the busy timeout
        start = time.monotonic()
        assert backend.complete(ChatRequest("stored", INFER)) == "pong"
        elapsed = time.monotonic() - start
        writer.join(timeout=10)
        db.execute("ROLLBACK")
    backend.close()
    assert not writer.is_alive()
    assert elapsed < 0.3
    assert "completion cache write failed: database is locked" in caplog.text


def test_misses_behind_a_locked_cache_do_not_wait_out_the_timeout_one_after_another(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(gateway, "CACHE_BUSY_TIMEOUT_S", 0.2)
    backend = CachedBackend(CountingBackend(), tmp_path / "c")
    n_threads = 16
    barrier = threading.Barrier(n_threads + 1)
    answers = {}

    def miss(i):
        barrier.wait(timeout=10)
        answers[i] = backend.complete(ChatRequest(f"new {i}", INFER))

    with contextlib.closing(sqlite3.connect(backend.cache_dir / "completions.sqlite3", isolation_level=None)) as db:
        db.execute("BEGIN IMMEDIATE")  # another process's write lock
        threads = [threading.Thread(target=miss, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        barrier.wait(timeout=10)
        start = time.monotonic()
        for t in threads:
            t.join(timeout=30)
        elapsed = time.monotonic() - start
        db.execute("ROLLBACK")
    backend.close()
    assert not any(t.is_alive() for t in threads)
    # one after another, the 16 waits would take 16 x 0.2 s
    assert elapsed < 1.6
    assert answers == {i: "pong" for i in range(n_threads)}
    assert "completion cache write failed: " in caplog.text


@contextlib.contextmanager
def _fresh_cache_being_written(cache_dir: pathlib.Path, request: ChatRequest, text: str):
    """Another process making a new cache: its table exists, the file is
    still in rollback mode, and it holds the write lock of a transaction
    that stores ``text`` for ``request``. Yields that connection."""
    cache_dir.mkdir()
    with contextlib.closing(sqlite3.connect(cache_dir / "completions.sqlite3", isolation_level=None,
                                            check_same_thread=False)) as db:
        db.execute("CREATE TABLE completions (key TEXT PRIMARY KEY, response_text TEXT NOT NULL)")
        db.execute("BEGIN IMMEDIATE")
        db.execute("INSERT INTO completions VALUES (?, ?)",
                   (request_key(request, CountingBackend.model, CountingBackend.max_tokens), text))
        yield db


def test_a_new_cache_that_another_process_holds_locked_is_opened_once_the_lock_goes(tmp_path, caplog):
    request = ChatRequest("stored", INFER)
    with caplog.at_level(logging.WARNING), _fresh_cache_being_written(tmp_path / "c", request, "kept") as db:
        release = threading.Timer(0.2, db.execute, args=("COMMIT",))
        start = time.monotonic()
        release.start()
        try:
            backend = CachedBackend(CountingBackend(), tmp_path / "c")
            waited = time.monotonic() - start
        finally:
            release.join(timeout=10)
    assert waited >= 0.15
    assert backend.complete(request) == "kept"
    assert (backend.inner.calls.total(), _hits(backend)) == (0, 1)
    backend.close()
    assert "completion cache" not in caplog.text


def test_a_new_cache_locked_past_the_busy_timeout_is_opened_by_its_first_lookup(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(gateway, "CACHE_BUSY_TIMEOUT_S", 0.05)
    request = ChatRequest("stored", INFER)
    with caplog.at_level(logging.WARNING), _fresh_cache_being_written(tmp_path / "c", request, "kept") as db:
        backend = CachedBackend(CountingBackend(), tmp_path / "c")
        db.execute("COMMIT")
    assert [r.getMessage() for r in caplog.records] == ["completion cache lookup failed: database is locked"]
    assert backend.complete(request) == "kept"
    assert (backend.inner.calls.total(), _hits(backend)) == (0, 1)
    backend.close()


# -- openai-compatible http ----------------------------------------------------


@pytest.fixture
def openai(chat_server, monkeypatch):
    """Makes clients of ``chat_server`` (or of ``base_url``), configured by
    the ``BackendConfig`` fields given, with the key ``sk-test`` and no
    backoff, and closes them after the test."""
    made = []
    monkeypatch.setenv("APIO_API_KEY", "sk-test")
    monkeypatch.setattr(gateway, "BACKOFF_BASE_S", 0.0)

    def make(base_url=chat_server.url, **kwargs) -> OpenAIChatBackend:
        made.append(OpenAIChatBackend(BackendConfig(base_url=base_url, model="test-model", **kwargs)))
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


@pytest.mark.parametrize(
    ("status", "retry_after", "backoff", "slept"),
    [
        (429, "3", 0.0, 3.0),
        (503, "3", 0.0, 3.0),
        (429, "99999", 0.0, 10.0),  # capped at timeout_s
        (503, "soon", 0.0, 0.0),
        (429, "Wed, 21 Oct 2026 07:28:00 GMT", 0.0, 0.0),
        (429, "3", 4.0, 4.0),  # the longer of the backoff and the header
        (500, "3", 0.0, 0.0),  # only a rate limit or an overload is read
    ],
)
def test_openai_retry_waits_as_retry_after_asks(chat_server, openai, monkeypatch, status, retry_after, backoff, slept):
    sleeps = []
    monkeypatch.setattr(gateway, "time", SimpleNamespace(sleep=sleeps.append))
    chat_server.script = [Reply(status=status, headers={"Retry-After": retry_after}), Reply(status=500),
                          Reply(body=completion("done"))]
    monkeypatch.setattr(gateway, "BACKOFF_BASE_S", backoff)
    backend = openai(retry_max=2, timeout_s=10.0)
    assert backend.complete(ChatRequest("x", INFER)) == "done"
    # the header holds for the one retry after its reply
    assert sleeps == [slept, 2 * backoff]


def test_openai_retry_waits_at_most_timeout_s(chat_server, openai, monkeypatch):
    # the doubling backoff is capped as a Retry-After is, so a long retry budget
    # keeps each wait within timeout_s
    sleeps = []
    monkeypatch.setattr(gateway, "time", SimpleNamespace(sleep=sleeps.append))
    monkeypatch.setattr(gateway, "BACKOFF_BASE_S", 4.0)
    chat_server.fallback = Reply(status=500)
    with pytest.raises(GatewayError, match="after 5 attempts"):
        openai(retry_max=4, timeout_s=10.0).complete(ChatRequest("x", INFER))
    assert sleeps == [4.0, 8.0, 10.0, 10.0]


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
    ["not json", [], {"choices": []}, {"choices": [{"text": "t"}]}, completion(123), completion(["x"])],
    ids=["not-json", "list", "no-choices", "no-message", "number-content", "list-content"],
)
def test_openai_malformed_payload_is_error(chat_server, openai, body):
    # a malformed 200 is a transient fault: it spends the retry budget
    chat_server.script = [Reply(body=body), Reply(body=completion("good"))]
    assert openai(retry_max=1).complete(ChatRequest("x", INFER)) == "good"
    assert len(chat_server.requests) == 2
    chat_server.script = [Reply(body=body)]
    with pytest.raises(GatewayError, match="after 1 attempts: malformed completion payload"):
        openai(retry_max=0).complete(ChatRequest("x", INFER))
    assert len(chat_server.requests) == 3


def test_openai_empty_completion_is_error(chat_server, openai):
    chat_server.script = [Reply(body=completion(""))]
    with pytest.raises(GatewayError, match="empty"):
        openai().complete(ChatRequest("x", INFER))
    assert len(chat_server.requests) == 1  # a temperature-0 answer would repeat


def test_openai_completion_that_is_not_unicode_is_error_at_once(chat_server, openai):
    # a JSON-escaped lone surrogate decodes, but can be neither cached nor written
    chat_server.script = [Reply(body='{"choices": [{"message": {"content": "fixed \\ud83d"}}]}')]
    with pytest.raises(GatewayError, match="not Unicode text: 'utf-8' codec can't encode character '.ud83d'"):
        openai().complete(ChatRequest("x", INFER))
    assert len(chat_server.requests) == 1


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


def test_openai_unreachable_endpoint_exhausts_budget(monkeypatch):
    monkeypatch.setattr(gateway, "BACKOFF_BASE_S", 0.0)
    backend = OpenAIChatBackend(BackendConfig(base_url=f"http://127.0.0.1:{_closed_port()}/v1", retry_max=1))
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


def test_openai_base_url_query_stays_after_the_path(chat_server, openai):
    openai(base_url=chat_server.url + "/?api-version=1").complete(ChatRequest("x", INFER))
    assert chat_server.requests[0]["path"] == "/v1/chat/completions?api-version=1"


def test_openai_http_proxy_gets_the_idna_encoded_host(chat_server, openai, monkeypatch):
    monkeypatch.setenv("HTTP_PROXY", chat_server.url.removesuffix("/v1"))
    assert openai(base_url="http://\u00e9xample.test/v1").complete(ChatRequest("x", INFER)) == "ok"
    sent = chat_server.requests[0]
    assert sent["path"] == "http://xn--xample-9ua.test/v1/chat/completions"
    assert sent["headers"]["Host"] == "xn--xample-9ua.test"


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


def _self_signed_certificate(tmp_path: pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
    """A certificate for 127.0.0.1 and its key, made with ``openssl``; the test is skipped without it."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("no openssl binary to make a certificate with")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1", "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True,
    )
    return cert, key


def test_openai_https_handshake_through_connect_tunnel(tmp_path, no_proxy_env):
    cert, key = _self_signed_certificate(tmp_path)
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
    no_proxy_env.setenv("APIO_API_KEY", "sk-test")
    backend = OpenAIChatBackend(BackendConfig(base_url=f"https://127.0.0.1:{port}/v1", retry_max=0))
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


def test_untrusted_certificate_ends_infer_after_one_request(tmp_path, no_proxy_env, capsys):
    cert, key = _self_signed_certificate(tmp_path)
    # the client trusts only its default store, which lacks this certificate
    no_proxy_env.delenv("SSL_CERT_FILE", raising=False)
    no_proxy_env.delenv("SSL_CERT_DIR", raising=False)
    connects = []
    connect = http.client.HTTPSConnection.connect
    no_proxy_env.setattr(http.client.HTTPSConnection, "connect", lambda conn: (connects.append(1), connect(conn))[1])
    context = ssl.create_default_context(ssl.Purpose.CLIENT_AUTH)
    context.load_cert_chain(cert, key)
    server = ChatServer()
    server.socket = context.wrap_socket(server.socket, server_side=True)
    serving = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    prompt, source, out, config = (tmp_path / name for name in ("p.txt", "in.txt", "out.txt", "cfg.json"))
    prompt.write_text("* Fix it.\nInput: {input_text}\nOutput:\n", encoding="utf-8")
    source.write_text("line one\n", encoding="utf-8")
    url = f"https://127.0.0.1:{server.server_address[1]}/v1"
    config.write_text(json.dumps({"backend": {"base_url": url, "retry_max": 1}}), encoding="utf-8")
    serving.start()
    try:
        assert main(["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
                     "--config", str(config), "--workers", "1"]) == 1
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    assert len(connects) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("engine failure: TLS certificate not trusted: ")
    assert server.requests == []


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
    backend = OpenAIChatBackend(BackendConfig(base_url="http://127.0.0.1:8000/v1"))
    assert (backend._proxy.hostname, backend._proxy.port) == ("proxy.test", 3128)
    assert backend._target == "http://127.0.0.1:8000/v1/chat/completions"


def test_openai_refuses_proxy_it_cannot_speak(no_proxy_env):
    no_proxy_env.setenv("HTTPS_PROXY", "https://proxy.test:8443")
    with pytest.raises(ValueError, match="only http:// proxies"):
        OpenAIChatBackend(BackendConfig(base_url="https://llm.test/v1"))
