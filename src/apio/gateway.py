"""Chat-completion backends behind one interface.

Every request goes through ``Backend.complete``, which counts it in
``Backend.calls``. Three implementations cover the deployment modes:

* ``OpenAIChatBackend`` - OpenAI-style chat-completions HTTP endpoint with
  retry/backoff, bearer token from ``APIO_API_KEY``;
* ``CachedBackend`` - content-addressed completion cache in one SQLite
  file, shared safely by processes, wrapping another backend;
* ``ScriptedBackend`` - deterministic offline backend that answers each
  request from the first script entry matching it.

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
import ssl
import threading
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import SplitResult, unquote, urlsplit

from .config import BackendConfig, from_object, http_url
from .corpus import ConfigurationError, read_json

log = logging.getLogger(__name__)


class GatewayError(Exception):
    """A request that failed: its transient failures exhausted the retry
    budget, the backend's answer is unusable, or no script entry matches
    it. Nothing re-sends it: the caller drops the one result it was for."""


class CredentialError(Exception):
    """The endpoint and the client do not trust each other: it rejected
    the credentials (401/403), or its TLS certificate is not trusted. No
    later request can succeed either, so it is not a ``GatewayError`` and
    ends the command."""


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
    purpose: str = "infer"  # induce, improve, rephrase, score or infer; Backend.calls counts by it and step
    step: int = 0  # the induction trial or optimize epoch; 0 for the seed scoring, the report and elsewhere

    def __post_init__(self):
        if not self.content:
            raise ValueError("request content must be non-empty")

    def text(self) -> str:
        return self.content


def request_key(request: ChatRequest, model: str, max_tokens: int) -> str:
    """The cache key of ``request`` sent to ``model`` with ``max_tokens``; its ``purpose`` and ``step`` stay out."""
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
    """Base backend; ``calls`` counts the requests it is sent by ``(purpose, step)``."""

    model = ""
    max_tokens = 1024

    def __init__(self) -> None:
        self.calls: Counter[tuple[str, int]] = Counter()
        self._calls_lock = threading.Lock()

    def complete(self, request: ChatRequest) -> str:
        with self._calls_lock:
            self.calls[request.purpose, request.step] += 1
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


@dataclass(frozen=True)
class ScriptEntry:
    match: str
    response: str = ""
    mode: str = "literal"  # one of _SCRIPT_MODES
    attempt_tag: int | None = None  # None answers any tag

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
    """Deterministic backend answering each request from the first script
    entry that matches it: the entry's ``match`` is a substring of the
    request's content, and its ``attempt_tag``, unless None, is the
    request's. No entry is used up, so an answer is a function of the
    request's content and tag, the inputs of its cache key, whatever the
    order, number or concurrency of the requests.
    """

    def __init__(self, entries: list[ScriptEntry]) -> None:
        super().__init__()
        if not entries:
            raise ValueError("script must be non-empty")
        self.entries = tuple(entries)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        """Load a script: a JSON list of objects, each with a ``match`` and
        optionally a ``response``, ``mode`` and ``attempt_tag``, and no other key."""
        raw = read_json(path)
        try:
            if not isinstance(raw, list):
                raise ValueError("a script must be a list of entries")
            return cls([from_object(ScriptEntry, item, f"entry {i}") for i, item in enumerate(raw)])
        except ValueError as exc:
            raise ConfigurationError(f"script file {path}: {exc}") from exc

    def _complete(self, request: ChatRequest) -> str:
        text = request.content
        tag = request.attempt_tag
        entry = next((e for e in self.entries if e.match in text and e.attempt_tag in (None, tag)), None)
        if entry is None:
            head = text.splitlines()[0][:120]
            raise GatewayError(f"no script entry matches request starting {head!r}")
        if entry.mode == "literal":
            return entry.response
        if entry.mode == "rewrite_rules":
            return _apply_rewrite_rules(text)
        return _echo_instruction(text)


# ---------------------------------------------------------------------------
# OpenAI-compatible HTTP backend
# ---------------------------------------------------------------------------

_RETRYABLE_STATUS = {408, 409, 429, 500, 502, 503, 504}
BACKOFF_BASE_S = 0.5  # the first retry's wait, doubled for each later one


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
    credentials given in the proxy URL. A proxy that is not an ``http``
    URL that ``http_url`` admits is refused, named without its
    credentials."""
    proxies = urllib.request.getproxies()
    url = proxies.get(endpoint.scheme) or proxies.get("all")
    if not url or _bypassed(endpoint, proxies.get("no", "")):
        return None, {}
    url = url if "://" in url else f"http://{url}"
    proxy = http_url(url)
    if proxy is None or proxy.scheme != "http":
        scheme, _, rest = url.partition("://")
        shown = f"{scheme}://{re.match('[^/?#]*', rest)[0].rpartition('@')[2]}"
        raise ConfigurationError(
            f"unsupported proxy {shown}: only http:// proxies are supported, with a host that IDNA can encode"
            " and a port from 1 to 65535"
        )
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
    A retry waits ``BACKOFF_BASE_S * 2**k``, or longer when a 429 or 503
    reply's ``Retry-After`` asks for more, in delta-seconds; an HTTP-date
    there is not read. No wait is longer than ``timeout_s``.
    Proxies come from the environment (``HTTPS_PROXY``, ``HTTP_PROXY``,
    ``ALL_PROXY``, ``NO_PROXY``): an ``https`` endpoint is reached through
    a CONNECT tunnel and an ``http`` one by sending the proxy the absolute
    URL. TLS uses Python's default verified context.
    """

    def __init__(self, config: BackendConfig) -> None:
        super().__init__()
        self.config = config
        self.model = config.model
        self.max_tokens = config.max_tokens
        api_key = os.environ.get("APIO_API_KEY", "")
        # a header carries Latin-1 text without control characters; the key is not echoed
        if any(c < " " or "\x7f" <= c <= "\x9f" or c > "\xff" for c in api_key):
            raise ConfigurationError(
                "APIO_API_KEY holds a control character or one outside Latin-1, which an HTTP header cannot carry"
            )
        base = urlsplit(config.base_url)
        self._endpoint = endpoint = base._replace(path=base.path.rstrip("/") + "/chat/completions")
        self._proxy, self._proxy_auth = _environment_proxy(endpoint)
        self._headers = {"Content-Type": "application/json", "Authorization": f"Bearer {api_key}"}
        self._target = endpoint.path + (f"?{endpoint.query}" if endpoint.query else "")
        if self._proxy is not None and endpoint.scheme == "http":
            # a plain-HTTP proxy is sent the absolute URL, its host IDNA-encoded as
            # in the Host header, and the credentials; for https they go into the
            # CONNECT request instead
            host = endpoint.hostname.encode("idna").decode("ascii")
            netloc = (f"[{host}]" if ":" in host else host) + (f":{endpoint.port}" if endpoint.port else "")
            self._target = f"http://{netloc}{self._target}"
            self._headers.update(self._proxy_auth)
        self._local = threading.local()
        # every thread's connection, so that close() reaches them all
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()

    def _open(self) -> http.client.HTTPConnection:
        """A new connection to the endpoint or its proxy; ``http.client``
        connects it on the first request and again after ``close``."""
        endpoint, proxy, timeout_s = self._endpoint, self._proxy, self.config.timeout_s
        https = endpoint.scheme == "https"
        cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
        if proxy is None:
            return cls(endpoint.hostname, endpoint.port or cls.default_port, timeout=timeout_s)
        conn = cls(proxy.hostname, proxy.port or http.client.HTTP_PORT, timeout=timeout_s)
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
        backoff, retry_after = BACKOFF_BASE_S, 0.0
        for attempt in range(self.config.retry_max + 1):
            if attempt:
                time.sleep(min(max(backoff, retry_after), self.config.timeout_s))
                backoff, retry_after = 2 * backoff, 0.0
            conn = self._connection()
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
                status, data = response.status, response.read()
            except ssl.SSLCertVerificationError as exc:
                conn.close()
                raise CredentialError(f"TLS certificate not trusted: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                last_error = exc
                continue
            if status in (401, 403):
                raise CredentialError(f"authentication failed ({status})")
            if status in _RETRYABLE_STATUS:
                last_error = GatewayError(f"transient status {status}")
                wait = response.getheader("Retry-After", "").strip()
                if status in (429, 503) and wait.isdigit() and wait.isascii():
                    retry_after = float(wait)
                continue
            if status != 200:
                raise GatewayError(f"unexpected status {status}: {data.decode('utf-8', 'replace')[:200]}")
            try:
                content = json.loads(data)["choices"][0]["message"]["content"]
                if content and not isinstance(content, str):
                    raise TypeError(f"content is {type(content).__name__}, not a string")
            except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
                last_error = GatewayError(f"malformed completion payload: {exc}")
                continue
            # a temperature-0 answer would repeat, so neither of these is sent again
            if not content:
                raise GatewayError("backend returned an empty completion")
            try:
                content.encode("utf-8")
            except UnicodeEncodeError as exc:  # a lone surrogate, which JSON can escape
                raise GatewayError(f"backend returned a completion that is not Unicode text: {exc}") from None
            return content
        raise GatewayError(f"retry budget exhausted after {self.config.retry_max + 1} attempts: {last_error}")


# ---------------------------------------------------------------------------
# completion cache
# ---------------------------------------------------------------------------

CACHE_BUSY_TIMEOUT_S = 5.0  # how long a cache write waits for another connection's write lock


class CachedBackend(Backend):
    """Completion cache in front of a backend: one SQLite file in WAL mode,
    ``<cache_dir>/completions.sqlite3``, that processes can share. A request is looked
    up, and on a miss sent to the inner backend and stored. An entry is never replaced, so
    identical misses that overlap each send a request, and all get the first text stored.
    Lookups and writes each run on a connection of their own through ``_execute``, the one
    recovery path: a failed statement closes only its own connection, which its next use
    reopens, so a failed lookup is a miss and a failed write keeps its text.
    The cache hits number ``calls.total() - inner.calls.total()``."""

    def __init__(self, inner: Backend, cache_dir: str | Path) -> None:
        super().__init__()
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(f"cache directory {self.cache_dir} is a file or lies under one") from exc
        self._lock = threading.Lock()  # guards _db
        try:
            self._db: sqlite3.Connection | None = self._connect()  # for lookups
        except sqlite3.OperationalError as exc:  # still locked: the first lookup opens it
            log.warning("completion cache lookup failed: %s", exc)
            self._db = None
        # writes wait out other processes' write locks on a connection of
        # their own, one at a time, so that no lookup waits behind them
        self._write_lock = threading.Lock()  # guards _writer
        self._writer: sqlite3.Connection | None = None

    def _connect(self) -> sqlite3.Connection:
        """A connection to the cache file, put in WAL mode, with its table
        made. Another connection's lock is waited out for up to
        ``CACHE_BUSY_TIMEOUT_S`` and then raises its ``OperationalError``;
        any other fault is a ``ValueError`` naming the file."""
        path = self.cache_dir / "completions.sqlite3"
        deadline = time.monotonic() + CACHE_BUSY_TIMEOUT_S
        while True:
            db = None
            try:
                db = sqlite3.connect(path, timeout=CACHE_BUSY_TIMEOUT_S, isolation_level=None, check_same_thread=False)
                # a table of another shape is refused before the file is changed
                columns = [row[1] for row in db.execute("PRAGMA table_info(completions)")]
                if columns not in ([], ["key", "response_text"]):
                    raise sqlite3.DatabaseError(f"its completions table has the columns {columns}")
                db.executescript(
                    "PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; CREATE TABLE IF NOT EXISTS"
                    " completions (key TEXT PRIMARY KEY, response_text TEXT NOT NULL);"
                )
                return db
            except sqlite3.DatabaseError as exc:  # an OperationalError too, when the file cannot be opened
                if db is not None:
                    db.close()
                # SQLite refuses at once, without waiting, a file that is locked
                # while it leaves rollback mode for WAL, so that is retried here
                if str(exc) != "database is locked":
                    raise ValueError(f"cache file {path} is not a usable SQLite database: {exc}") from exc
                if time.monotonic() >= deadline:
                    raise
            time.sleep(0.01)

    def close(self) -> None:
        """Close the database, folding its log into the file, and the inner backend; all reopen on use."""
        with self._lock, self._write_lock:
            for db in (self._db, self._writer):
                if db is not None:
                    db.close()
            self._db = self._writer = None
        self.inner.close()

    def _execute(self, db: sqlite3.Connection | None, step: str, *statements: tuple) -> tuple:
        """Run ``statements``, each (SQL, parameters), on ``db``, opened first
        when None, and return it with the last one's row. A failure is logged
        as a failed ``step`` and closes ``db``, which its next use reopens,
        making a dropped table again; it returns (None, None)."""
        try:
            db = db or self._connect()
            for sql, parameters in statements:
                cursor = db.execute(sql, parameters)
            return db, cursor.fetchone()
        except (sqlite3.Error, ValueError) as exc:  # ValueError: the connection could not be opened
            log.warning("completion cache %s failed: %s", step, exc)
            if db is not None:
                db.close()
            return None, None

    def _complete(self, request: ChatRequest) -> str:
        key = request_key(request, self.inner.model, self.inner.max_tokens)
        select = ("SELECT response_text FROM completions WHERE key = ?", (key,))
        with self._lock:
            self._db, row = self._execute(self._db, "lookup", select)
        if row is not None:
            return row[0]
        text = self.inner.complete(request)
        # a write that waits out CACHE_BUSY_TIMEOUT_S behind another thread's
        # write keeps its text, so that writes held up by another process do
        # not queue up their waits
        if not self._write_lock.acquire(timeout=CACHE_BUSY_TIMEOUT_S):
            log.warning("completion cache write failed: another write held the cache for %s s", CACHE_BUSY_TIMEOUT_S)
            return text
        try:
            insert = ("INSERT OR IGNORE INTO completions VALUES (?, ?)", (key, text))
            self._writer, row = self._execute(self._writer, "write", insert, select)
        finally:
            self._write_lock.release()
        return row[0] if row else text
