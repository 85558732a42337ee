"""Chat-completion backends behind one interface.

Every network interaction in the engine goes through ``Backend.complete``.
Three implementations cover the deployment modes:

* ``OpenAIChatBackend`` - OpenAI-style chat-completions HTTP endpoint with
  retry/backoff, bearer token from ``APIO_API_KEY``;
* ``CachedBackend`` - content-addressed completion cache in one SQLite
  file, shared safely by processes, wrapping another backend, with
  in-flight deduplication of identical requests;
* ``ScriptedBackend`` - deterministic offline backend driven by an
  ordered script of (matcher, response) entries.

Two generation profiles exist: EXPLORE (temperature 1.0, top-p 1.0) for
prompt search and INFER (temperature 0.0, top-p 0.1) for inference.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import ipaddress
import json
import logging
import os
import re
import select
import socket
import sqlite3
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import SplitResult, unquote, urlsplit

from .config import from_object
from .corpus import ConfigurationError, read_json

log = logging.getLogger(__name__)


class GatewayError(Exception):
    """A request that failed: its transient failures exhausted the retry
    budget, the backend's answer is unusable, or no script entry matches
    it. The caller may skip it and go on."""


class CredentialError(Exception):
    """Authentication rejected: no later request can succeed either, so
    it is not a ``GatewayError`` and ends the command."""


@dataclass(frozen=True)
class GenerationProfile:
    temperature: float
    top_p: float


EXPLORE = GenerationProfile(temperature=1.0, top_p=1.0)
INFER = GenerationProfile(temperature=0.0, top_p=0.1)


@dataclass(frozen=True)
class ChatRequest:
    content: str  # the one user message
    profile: GenerationProfile
    attempt_tag: int = 0

    def __post_init__(self):
        if not self.content:
            raise ValueError("request content must be non-empty")

    def text(self) -> str:
        return self.content


def request_key(request: ChatRequest, model: str, max_tokens: int) -> str:
    """The cache key of ``request`` sent to ``model`` with ``max_tokens``."""
    payload = json.dumps(
        {
            "model": model,
            "temperature": request.profile.temperature,
            "top_p": request.profile.top_p,
            "max_tokens": max_tokens,
            "messages": [["user", request.content]],
            "attempt_tag": request.attempt_tag,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Backend:
    """Base backend; counts the requests it is sent in ``n_calls``."""

    model = ""
    max_tokens = 1024

    def __init__(self) -> None:
        self.n_calls = 0
        self._calls_lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        with self._calls_lock:
            self.n_calls += 1
        return self._complete(request)

    def _complete(self, request: ChatRequest) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; it stays usable."""


# ---------------------------------------------------------------------------
# scripted backend
# ---------------------------------------------------------------------------

_RULE_RE = re.compile(r'[Rr]eplace "(.*?)" with "(.*?)"')
_ECHO_RE = re.compile(r"Instruction:(.*)\nUpdated instruction:", re.DOTALL)


_SCRIPT_MODES = ("literal", "rewrite_rules", "echo_instruction")


@dataclass
class ScriptEntry:
    match: str
    response: str = ""
    mode: str = "literal"  # one of _SCRIPT_MODES
    sticky: bool = False

    def __post_init__(self):
        if self.mode not in _SCRIPT_MODES:
            raise ValueError(f"mode must be one of {', '.join(_SCRIPT_MODES)}, got {self.mode!r}")


def _apply_rewrite_rules(prompt_text: str) -> str:
    """Interpret a rendered task prompt as literal string-rewrite rules.

    Bullet lines of the form ``Replace "x" with "y".`` are applied in order
    to the input text carried by the prompt footer. Every task footer ends
    with an ``<input label>: <text>`` line followed by the output label,
    so the input is the text of the line before the last.
    """
    lines = prompt_text.split("\n")
    rules = []
    for line in lines:
        if line.startswith("* "):
            found = _RULE_RE.search(line[2:])
            if found:
                rules.append((found.group(1), found.group(2)))
    result = lines[-2].split(": ", 1)[1] if len(lines) >= 2 and ": " in lines[-2] else ""
    for old, new in rules:
        result = result.replace(old, new)
    return result


def _echo_instruction(prompt_text: str) -> str:
    found = _ECHO_RE.search(prompt_text)
    return found.group(1).strip() if found else ""


class ScriptedBackend(Backend):
    """Deterministic backend consuming an ordered (matcher, response) script.

    Each request takes the first matching unconsumed entry; matchers test
    substring presence in the request text. Plain entries are consumed on
    use; ``sticky`` entries answer any number of requests, which the
    synthetic end-to-end tasks need for inference traffic. Inference
    requests may arrive concurrently, so a plain entry that answers one
    goes to whichever request comes first; this is logged once.
    """

    def __init__(self, entries: list[ScriptEntry]) -> None:
        super().__init__()
        if not entries:
            raise ValueError("script must be non-empty")
        self.entries = entries
        self._consumed: set[int] = set()
        self._lock = threading.Lock()
        self._warned_plain_infer = False

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """Load a script: a JSON list of objects, each with a ``match`` and
        optionally a ``response``, ``mode`` and ``sticky``, and no other key."""
        raw = read_json(path)
        try:
            if not isinstance(raw, list):
                raise ValueError("a script must be a list of entries")
            return cls([from_object(ScriptEntry, item, f"entry {i}") for i, item in enumerate(raw)])
        except ValueError as exc:
            raise ConfigurationError(f"script file {path}: {exc}") from exc

    def consumed_state(self) -> list[int]:
        with self._lock:
            return sorted(self._consumed)

    def restore_consumed(self, indices: list[int]) -> None:
        with self._lock:
            self._consumed = set(indices)

    def _complete(self, request: ChatRequest) -> str:
        text = request.text()
        with self._lock:
            for idx, entry in enumerate(self.entries):
                if not entry.sticky and idx in self._consumed:
                    continue
                if entry.match in text:
                    if not entry.sticky:
                        self._consumed.add(idx)
                        if request.profile == INFER and not self._warned_plain_infer:
                            self._warned_plain_infer = True
                            log.warning(
                                "script entry %d answers an inference request but is not"
                                " sticky; with --workers > 1 the answer order is not"
                                " deterministic",
                                idx,
                            )
                    chosen = entry
                    break
            else:
                head = text.splitlines()[0][:120] if text else ""
                raise GatewayError(
                    f"no script entry matches request starting {head!r}"
                )
        if chosen.mode == "literal":
            return chosen.response
        if chosen.mode == "rewrite_rules":
            return _apply_rewrite_rules(text)
        return _echo_instruction(text)


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTP backend
# ---------------------------------------------------------------------------

_RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}


def _bypassed(endpoint: SplitResult, no_proxy: str) -> bool:
    """Whether ``NO_PROXY`` exempts ``endpoint``: by ``proxy_bypass``, or,
    for an IP-literal host, by an entry that is an IP network such as
    ``127.0.0.0/8``."""
    if urllib.request.proxy_bypass(endpoint.netloc):
        return True
    try:
        address = ipaddress.ip_address(endpoint.hostname or "")
    except ValueError:
        return False
    for entry in no_proxy.split(","):
        try:
            if address in ipaddress.ip_network(entry.strip(), strict=False):
                return True
        except ValueError:
            continue
    return False


def _environment_proxy(endpoint: SplitResult) -> tuple[SplitResult | None, dict[str, str]]:
    """The proxy that the environment names for ``endpoint``
    (``urllib.request.getproxies``, with ``NO_PROXY`` applied by
    ``_bypassed``), and the ``Proxy-Authorization`` header for
    credentials given in the proxy URL."""
    proxies = urllib.request.getproxies()
    url = proxies.get(endpoint.scheme) or proxies.get("all")
    if not url or _bypassed(endpoint, proxies.get("no", "")):
        return None, {}
    proxy = urlsplit(url if "://" in url else f"http://{url}")
    if proxy.scheme != "http" or not proxy.hostname:
        raise ValueError(f"unsupported proxy {url!r}: only http:// proxies are supported")
    if proxy.username is None:
        return proxy, {}
    credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}".encode("utf-8")
    return proxy, {"Proxy-Authorization": "Basic " + base64.b64encode(credentials).decode("ascii")}


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle keep-alive socket can no longer carry a request: it
    is readable, so the server closed it (or sent bytes out of turn)."""
    poller = select.poll()
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


class OpenAIChatBackend(Backend):
    """OpenAI-style chat-completions client over ``http.client``.

    Each thread sends its requests over one persistent connection of its
    own, opened on first use. A connection that the server closed while it
    sat idle is replaced before it is reused, without spending a retry.
    Proxies come from the environment (``HTTPS_PROXY``, ``HTTP_PROXY``,
    ``ALL_PROXY``, ``NO_PROXY``): an ``https`` endpoint is reached through
    a CONNECT tunnel and an ``http`` one by sending the proxy the absolute
    URL. TLS uses Python's default verified context.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key: str | None = None,
        retry_max: int = 5,
        timeout_s: float = 60.0,
        max_tokens: int = 1024,
        backoff_base_s: float = 0.5,
    ) -> None:
        super().__init__()
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.max_tokens = max_tokens
        self.api_key = api_key if api_key is not None else os.environ.get("APIO_API_KEY", "")
        self.retry_max = retry_max
        self.timeout_s = timeout_s
        self.backoff_base_s = backoff_base_s
        url = f"{self.base_url}/chat/completions"
        self._endpoint = urlsplit(url)
        self._proxy, self._proxy_auth = _environment_proxy(self._endpoint)
        self._headers = {"Content-Type": "application/json", "Authorization": f"Bearer {self.api_key}"}
        if self._proxy is not None and self._endpoint.scheme == "http":
            # a plain-HTTP proxy is sent the absolute URL and the credentials;
            # for https they go into the CONNECT request instead
            self._target = url
            self._headers.update(self._proxy_auth)
        else:
            self._target = self._endpoint.path + (f"?{self._endpoint.query}" if self._endpoint.query else "")
        self._local = threading.local()
        # every thread's connection, so that close() reaches them all
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()

    def _open(self) -> http.client.HTTPConnection:
        """A new connection to the endpoint or its proxy; ``http.client``
        connects it on the first request and again after ``close``."""
        endpoint, proxy = self._endpoint, self._proxy
        https = endpoint.scheme == "https"
        cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
        if proxy is None:
            return cls(endpoint.hostname, endpoint.port or cls.default_port, timeout=self.timeout_s)
        conn = cls(proxy.hostname, proxy.port or http.client.HTTP_PORT, timeout=self.timeout_s)
        if https:
            conn.set_tunnel(endpoint.hostname, endpoint.port or http.client.HTTPS_PORT, self._proxy_auth)
        return conn

    def _connection(self) -> http.client.HTTPConnection:
        """The calling thread's connection, closed first if the server
        dropped it while idle, so that the next request reconnects."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._open()
            with self._connections_lock:
                self._connections.append(conn)
        elif conn.sock is not None and _dropped(conn.sock):
            conn.close()
        return conn

    def close(self) -> None:
        """Close every thread's connection; a later request reopens it.
        Call it once no request is in flight."""
        with self._connections_lock:
            for conn in self._connections:
                conn.close()

    def _complete(self, request: ChatRequest) -> str:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.content}],
            "temperature": request.profile.temperature,
            "top_p": request.profile.top_p,
            "max_tokens": self.max_tokens,
        }
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retry_max + 1):
            if attempt:
                time.sleep(self.backoff_base_s * (2 ** (attempt - 1)))
            conn = self._connection()
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
                status, data = response.status, response.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_error = exc
                continue
            if status in (401, 403):
                raise CredentialError(f"authentication failed ({status})")
            if status in _RETRYABLE_STATUS:
                last_error = GatewayError(f"transient status {status}")
                continue
            if status != 200:
                raise GatewayError(f"unexpected status {status}: {data.decode('utf-8', 'replace')[:200]}")
            try:
                content = json.loads(data)["choices"][0]["message"]["content"]
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise GatewayError(f"malformed completion payload: {exc}") from exc
            if not content:
                raise GatewayError("backend returned an empty completion")
            return content
        raise GatewayError(f"retry budget exhausted after {self.retry_max + 1} attempts: {last_error}")


# ---------------------------------------------------------------------------
# completion cache
# ---------------------------------------------------------------------------


class CachedBackend(Backend):
    """Completion cache in front of a backend: one SQLite file in WAL mode,
    ``<cache_dir>/completions.sqlite3``, that processes can share. An entry
    is never replaced, so writers of one key all get the first text stored.
    Identical concurrent requests wait for the first one, then read its
    entry, or send their own request if it failed."""

    def __init__(self, inner: Backend, cache_dir: str | Path) -> None:
        super().__init__()
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(f"cache directory {self.cache_dir} is a file or lies under one") from exc
        self._lock = threading.Lock()  # guards _db and _inflight
        self._db: sqlite3.Connection | None = self._connect()
        self._inflight: dict[str, threading.Event] = {}  # set when the key's request ends
        self.hits = 0  # counted under _calls_lock

    def _connect(self) -> sqlite3.Connection:
        path = self.cache_dir / "completions.sqlite3"
        db = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
        try:
            # a table of another shape is refused before the file is changed
            columns = [row[1] for row in db.execute("PRAGMA table_info(completions)")]
            if columns not in ([], ["key", "response_text"]):
                raise sqlite3.DatabaseError(f"its completions table has the columns {columns}")
            db.executescript(
                "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; CREATE TABLE IF NOT EXISTS"
                " completions (key TEXT PRIMARY KEY, response_text TEXT NOT NULL);"
            )
        except sqlite3.DatabaseError as exc:
            db.close()
            raise ValueError(f"cache file {path} is not a usable SQLite database: {exc}") from exc
        return db

    def close(self) -> None:
        """Close the database, folding its log into the file, and the inner backend; both reopen on use."""
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None
        self.inner.close()

    def _stored(self, key: str, text: str | None = None) -> str | None:
        """The text stored for ``key``, after storing ``text`` if it has none; hold ``_lock``."""
        self._db = self._db or self._connect()
        if text is not None:
            self._db.execute("INSERT OR IGNORE INTO completions VALUES (?, ?)", (key, text))
        row = self._db.execute("SELECT response_text FROM completions WHERE key = ?", (key,)).fetchone()
        return row[0] if row else None

    def _complete(self, request: ChatRequest) -> str:
        key = request_key(request, self.inner.model, self.inner.max_tokens)
        while True:
            with self._lock:
                if (text := self._stored(key)) is not None:
                    break
                running = self._inflight.setdefault(key, done := threading.Event())
            if running is done:
                try:
                    text = self.inner.complete(request)
                    with self._lock:
                        return self._stored(key, text)
                finally:
                    with self._lock:
                        del self._inflight[key]
                    done.set()
            running.wait()
        with self._calls_lock:
            self.hits += 1
        return text
