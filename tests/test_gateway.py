from __future__ import annotations

import json
import logging
import pathlib
import sys
import threading
import time
from dataclasses import replace

import pytest

from apio.gateway import (
    Backend,
    BackendError,
    CachedBackend,
    ChatRequest,
    CredentialError,
    EXPLORE,
    GenerationProfile,
    INFER,
    OpenAIChatBackend,
    ScriptEntry,
    ScriptExhaustedError,
    ScriptedBackend,
    TransportError,
    request_key,
    user_request,
)


def test_profiles_are_the_two_presets():
    assert (EXPLORE.temperature, EXPLORE.top_p) == (1.0, 1.0)
    assert (INFER.temperature, INFER.top_p) == (0.0, 0.1)


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(messages=(), profile=INFER)
    with pytest.raises(ValueError):
        ChatRequest(messages=(("user", ""),), profile=INFER)


# -- scripted ----------------------------------------------------------------


def test_scripted_pass_through():
    backend = ScriptedBackend.from_pairs([("Generate a variation", "new text")])
    out = backend.complete(user_request("Generate a variation of x", EXPLORE))
    assert out == "new text"
    assert len(backend.calls) == 1


def test_scripted_queue_semantics():
    backend = ScriptedBackend.from_pairs([("ask", "first"), ("ask", "second")])
    assert backend.complete(user_request("ask me", EXPLORE)) == "first"
    assert backend.complete(user_request("ask me", EXPLORE)) == "second"
    with pytest.raises(ScriptExhaustedError, match="ask me"):
        backend.complete(user_request("ask me", EXPLORE))


def test_scripted_unmatched_is_loud():
    backend = ScriptedBackend.from_pairs([("improve", "x")])
    with pytest.raises(ScriptExhaustedError):
        backend.complete(user_request("something else entirely", EXPLORE))


def test_scripted_sticky_entries_repeat():
    backend = ScriptedBackend([ScriptEntry(match="go", response="yes", sticky=True)])
    for _ in range(5):
        assert backend.complete(user_request("go now", INFER)) == "yes"


def test_scripted_plain_inference_entry_warns_once(caplog):
    backend = ScriptedBackend.from_pairs([("go", "a"), ("go", "b"), ("go", "c")])
    backend.complete(user_request("go", EXPLORE))
    assert not caplog.records
    with caplog.at_level("WARNING", logger="apio.gateway"):
        backend.complete(user_request("go", INFER))
        backend.complete(user_request("go", INFER))
    assert [r.getMessage() for r in caplog.records] == [
        "script entry 1 answers an inference request but is not sticky;"
        " with --workers > 1 the answer order is not deterministic"
    ]


def test_rewrite_rules_mode():
    backend = ScriptedBackend([ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True)])
    prompt = (
        '* Replace "foo" with "bar".\n'
        '* Replace "x" with "y".\n'
        "Input: a foo and an x\n"
        "Output:"
    )
    assert backend.complete(user_request(prompt, INFER)) == "a bar and an y"


def test_echo_instruction_mode():
    backend = ScriptedBackend([ScriptEntry(match="variation", mode="echo_instruction", sticky=True)])
    prompt = "Generate a variation ...\n\nInstruction:Keep it simple.\nUpdated instruction:"
    assert backend.complete(user_request(prompt, EXPLORE)) == "Keep it simple."


def test_scripted_consumed_state_restores():
    backend = ScriptedBackend.from_pairs([("a", "1"), ("a", "2")])
    backend.complete(user_request("a", EXPLORE))
    snapshot = backend.consumed_state()
    fresh = ScriptedBackend.from_pairs([("a", "1"), ("a", "2")])
    fresh.restore_consumed(snapshot)
    assert fresh.complete(user_request("a", EXPLORE)) == "2"


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
    request = user_request("hello", INFER)
    assert backend.complete(request) == "pong"
    assert backend.complete(request) == "pong"
    assert inner.n_calls == 1
    assert backend.hits == 1


def test_cache_key_sensitive_to_every_field():
    base = user_request("hello", INFER, attempt_tag=0)
    base_key = request_key(base, replace(INFER, model_id="m"))
    variants = [
        request_key(user_request("hello!", INFER), replace(INFER, model_id="m")),
        request_key(user_request("hello", INFER, attempt_tag=1), replace(INFER, model_id="m")),
        request_key(base, replace(INFER, model_id="other")),
        request_key(base, replace(EXPLORE, model_id="m")),
        request_key(base, replace(INFER, model_id="m", max_tokens=7)),
    ]
    assert base_key not in variants
    assert len(set(variants)) == len(variants)


def test_cache_persists_across_instances(tmp_path):
    request = user_request("ping", INFER)
    first = CachedBackend(CountingBackend(), tmp_path / "c")
    assert first.complete(request) == "pong"
    second_inner = CountingBackend(response="different")
    second = CachedBackend(second_inner, tmp_path / "c")
    assert second.complete(request) == "pong"  # byte-identical, no inner call
    assert second_inner.n_calls == 0


@pytest.mark.parametrize("stored", ['{"key": "abc", "respon', "[]", '{"key": "abc"}', "\x00\xff"])
def test_unreadable_cache_entry_is_refetched(tmp_path, caplog, stored):
    request = user_request("ping", INFER)
    inner = CountingBackend()
    backend = CachedBackend(inner, tmp_path / "c")
    entry = backend.cache_dir / f"{request_key(request, inner.resolve_profile(INFER))}.json"
    entry.write_bytes(stored.encode("latin-1"))
    with caplog.at_level(logging.WARNING, logger="apio.gateway"):
        assert backend.complete(request) == "pong"
    assert inner.n_calls == 1
    assert len(caplog.records) == 1 and "unreadable cache entry" in caplog.text
    assert json.loads(entry.read_text(encoding="utf-8"))["response_text"] == "pong"
    assert backend.complete(request) == "pong"  # the rewritten entry now hits
    assert (inner.n_calls, backend.hits) == (1, 1)


def test_writers_sharing_a_cache_dir_use_their_own_temp_files(tmp_path, monkeypatch):
    # two caches on one directory stand in for two processes: the second
    # writes the same entry while the first is between writing its temp
    # file and renaming it into place
    request = user_request("shared", INFER)
    first = CachedBackend(CountingBackend(), tmp_path / "c")
    second = CachedBackend(CountingBackend(), tmp_path / "c")
    rename = pathlib.Path.replace
    interleaved = []

    def replace(self, target):
        if not interleaved:
            interleaved.append(self.name)
            writer = threading.Thread(target=second.complete, args=(request,))
            writer.start()
            writer.join(timeout=10)
            assert not writer.is_alive()
        return rename(self, target)

    monkeypatch.setattr(pathlib.Path, "replace", replace)
    assert first.complete(request) == "pong"
    assert interleaved and second.inner.n_calls == 1
    assert [p.suffix for p in first.cache_dir.iterdir()] == [".json"]


def test_inflight_dedup(tmp_path):
    inner = CountingBackend(delay=0.15)
    backend = CachedBackend(inner, tmp_path / "c")
    request = user_request("slow", INFER)
    results = []
    threads = [threading.Thread(target=lambda: results.append(backend.complete(request))) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == ["pong"] * 4
    assert inner.n_calls == 1


def test_cache_hits_counted_exactly_across_threads(tmp_path):
    backend = CachedBackend(CountingBackend(), tmp_path / "c")
    request = user_request("shared", INFER)
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


class FakeResponse:
    def __init__(self, status_code=200, content="ok", body=None):
        self.status_code = status_code
        self._body = body if body is not None else {
            "choices": [{"message": {"content": content}}]
        }
        self.text = str(self._body)

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _backend(responses, **kwargs):
    session = FakeSession(responses)
    backend = OpenAIChatBackend(
        base_url="http://llm.test/v1",
        model="test-model",
        api_key="sk-test",
        session=session,
        backoff_base_s=0.0,
        **kwargs,
    )
    return backend, session


def test_openai_success_payload():
    backend, session = _backend([FakeResponse(content="fixed text")])
    out = backend.complete(user_request("fix this", INFER))
    assert out == "fixed text"
    sent = session.requests[0]
    assert sent["url"] == "http://llm.test/v1/chat/completions"
    assert sent["json"]["model"] == "test-model"
    assert sent["json"]["temperature"] == 0.0
    assert sent["json"]["top_p"] == 0.1
    assert sent["headers"]["Authorization"] == "Bearer sk-test"


def test_openai_auth_failure_no_retry():
    backend, session = _backend([FakeResponse(status_code=401)])
    with pytest.raises(CredentialError):
        backend.complete(user_request("x", INFER))
    assert len(session.requests) == 1


def test_openai_retries_transients_then_succeeds():
    backend, session = _backend(
        [FakeResponse(status_code=429), FakeResponse(status_code=503), FakeResponse(content="done")],
        retry_max=5,
    )
    assert backend.complete(user_request("x", INFER)) == "done"
    assert len(session.requests) == 3


def test_openai_retry_budget_exhausted():
    backend, session = _backend([FakeResponse(status_code=500)] * 3, retry_max=2)
    with pytest.raises(TransportError):
        backend.complete(user_request("x", INFER))
    assert len(session.requests) == 3


def test_openai_empty_completion_is_error():
    backend, _ = _backend([FakeResponse(content="")])
    with pytest.raises(BackendError, match="empty"):
        backend.complete(user_request("x", INFER))


def test_openai_max_tokens_override():
    backend, session = _backend([FakeResponse()], max_tokens=77)
    backend.complete(user_request("x", INFER))
    assert session.requests[0]["json"]["max_tokens"] == 77


def test_openai_session_per_thread_unless_injected():
    own = OpenAIChatBackend(base_url="http://llm.test/v1", model="m", api_key="k")
    injected, session = _backend([])
    seen = {}

    def grab(name):
        seen[name] = (own.session, injected.session)

    threads = [threading.Thread(target=grab, args=(name,)) for name in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert seen["a"][0] is not seen["b"][0]
    assert seen["a"][0] is not own.session
    assert own.session is own.session  # stable within a thread
    assert seen["a"][1] is seen["b"][1] is session


def test_profile_resolution_fills_model_and_tokens():
    backend, _ = _backend([], max_tokens=77)
    resolved = backend.resolve_profile(INFER)
    assert resolved.model_id == "test-model"
    assert resolved.max_tokens == 77
    explicit = backend.resolve_profile(GenerationProfile(0.5, 0.5, model_id="custom"))
    assert explicit.model_id == "custom"
