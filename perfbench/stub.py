"""Local OpenAI-style chat-completions stub for the benchmark.

Run as its own process: ``python3 perfbench/stub.py``. It binds an
ephemeral port on 127.0.0.1, prints that port on the first line of its
standard output and serves until terminated.

Endpoints:

* ``POST /v1/chat/completions`` - answers like a model that follows the
  instruction list literally (see ``answer``), after sleeping the injected
  latency;
* ``POST /probe/v1/chat/completions`` - prints ``probe <time.monotonic()>``
  on standard output and answers 401, which marks the end of set-up for a
  client process started to measure it;
* ``GET /stats`` - request, prompt-token, service-time and injected-wait
  totals since the last reset;
* ``GET /reset?latency_ms=<x>`` - clears the totals and the per-payload
  occurrence counters and sets the injected latency.

Induce, improve and rephrase answers are a pure function of the request
body and of how many times that exact body arrived before since the last
reset. That stands in for temperature-1 sampling: the client's
``attempt_tag`` never reaches the wire, so repeated identical requests are
told apart by arrival order alone. Inference answers depend on the body
only.

The model prefers rewriting long words, as a simplifier would, and its
improve proposals walk the observed fixes in that order before offering a
harmful and a neutral instruction. That keeps the shape of a search (how
many children each parent gets, which of them enter the beam) the same
from seed to seed, so the benchmark's figures vary little across seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

RULE_RE = re.compile(r'[Rr]eplace "(.*?)" with "(.*?)"')

_INDUCE_MARK = "Could you give an instruction"
_IMPROVE_MARK = "Suggest new instruction"
_REPHRASE_MARK = "Generate a variation"
_REPHRASE_RE = re.compile(r"Instruction:(.*)\nUpdated instruction:", re.DOTALL)
_EXAMPLE_RE = re.compile(r"^System's Output (\d+): (.*)\nGold Output \1: (.*)$", re.MULTILINE)


def purpose(text: str) -> str:
    """Which operator sent a request: induce, improve, rephrase or infer."""
    if _INDUCE_MARK in text:
        return "induce"
    if _IMPROVE_MARK in text:
        return "improve"
    if _REPHRASE_MARK in text:
        return "rephrase"
    return "infer"


def parse_rules(lines) -> list[tuple[str, str]]:
    """``Replace "x" with "y".`` rules found in ``* `` bullet lines."""
    rules = []
    for line in lines:
        if line.startswith("* "):
            found = RULE_RE.search(line[2:])
            if found:
                rules.append((found.group(1), found.group(2)))
    return rules


def apply_rules(rules: list[tuple[str, str]], text: str) -> str:
    """Apply single-token substitution rules in order, token by token."""
    tokens = text.split()
    for old, new in rules:
        if len(old.split()) != 1:
            continue
        tokens = [new if tok == old else tok for tok in tokens]
    return " ".join(tokens)


def rewrite(prompt_text: str) -> str:
    """Inference: apply the prompt's rule bullets to the footer input.

    Every task footer ends with ``<input label>: <text>`` followed by a
    ``<output label>:`` line, so the input is the text of the line before
    the last.
    """
    lines = prompt_text.split("\n")
    source = lines[-2].split(": ", 1)[1] if len(lines) >= 2 and ": " in lines[-2] else ""
    return apply_rules(parse_rules(lines), source)


def _token_diffs(a: str, b: str) -> list[tuple[str, str]]:
    ta, tb = a.split(), b.split()
    if len(ta) != len(tb):
        return []
    return [(x, y) for x, y in zip(ta, tb) if x != y]


def _ranked_fixes(pairs) -> list[tuple[str, str]]:
    """Distinct token fixes over (output, gold) pairs, longest word first."""
    fixes = list(dict.fromkeys(d for out, gold in pairs for d in _token_diffs(out, gold)))
    return sorted(fixes, key=lambda d: -len(d[0]))


def _induce(text: str, occurrence: int) -> str:
    lines = text.split("\n")
    source = lines[2].split(": ", 1)[1]
    target = lines[3].split(": ", 1)[1]
    fixes = _ranked_fixes([(source, target)])
    if not fixes:
        return "Keep the sentence as it is."
    old, new = fixes[occurrence % len(fixes)]
    return f'Replace "{old}" with "{new}".'


def _improve(text: str, occurrence: int) -> str:
    head = text.split("Below are the examples", 1)[0]
    covered = {old for old, _ in parse_rules(head.split("\n"))}
    examples = _EXAMPLE_RE.findall(text)
    fixes = [d for d in _ranked_fixes((out, gold) for _, out, gold in examples) if d[0] not in covered]
    rules = [f'Replace "{old}" with "{new}".' for old, new in fixes]
    if fixes:
        # a plausible but harmful proposal: undo a correct word
        rules.append(f'Replace "{fixes[0][1]}" with "{fixes[0][0]}".')
    rules.append("Keep every other word unchanged.")
    return f"<new_instruction>{rules[occurrence % len(rules)]}</new_instruction>"


def _rephrase(text: str, digest: int, occurrence: int) -> str:
    found = _REPHRASE_RE.search(text)
    instruction = found.group(1).strip() if found else ""
    rule = RULE_RE.search(instruction)
    if rule is None:
        variants = [
            f"Please {instruction[:1].lower()}{instruction[1:]}",
            f"{instruction.rstrip('.')} in every sentence.",
            "Keep the wording simple.",
        ]
    else:
        old, new = rule.groups()
        variants = [
            f'Replace "{old}" with "{new}" wherever it occurs.',
            f'Always replace "{old}" with "{new}".',
            f'Replace every "{old}" with "{new}".',
            # loses the rule, as a careless paraphrase would
            f'Prefer "{new}" over "{old}".',
        ]
    return variants[(digest + occurrence) % len(variants)]


def answer(text: str, digest: int, occurrence: int) -> str:
    """Completion for a request whose message text is ``text``."""
    kind = purpose(text)
    if kind == "induce":
        return _induce(text, occurrence)
    if kind == "improve":
        return _improve(text, occurrence)
    if kind == "rephrase":
        return _rephrase(text, digest, occurrence)
    return rewrite(text)


class StubState:
    """Per-run counters and the occurrence index of every request body."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.latency_s = 0.0
        self.reset(0.0)

    def reset(self, latency_s: float) -> None:
        with self.lock:
            self.latency_s = latency_s
            self.occurrences: dict[bytes, int] = {}
            self.requests = 0
            self.prompt_tokens = 0
            self.service_s = 0.0
            self.injected_s = 0.0

    def occurrence(self, digest: bytes) -> int:
        with self.lock:
            seen = self.occurrences.get(digest, 0)
            self.occurrences[digest] = seen + 1
            return seen

    def account(self, tokens: int, service_s: float, injected_s: float) -> None:
        with self.lock:
            self.requests += 1
            self.prompt_tokens += tokens
            self.service_s += service_s
            self.injected_s += injected_s

    def stats(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "prompt_tokens": self.prompt_tokens,
                "service_s": self.service_s,
                "injected_s": self.injected_s,
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # without this every response waits on the client's delayed ACK
    disable_nagle_algorithm = True
    state: StubState

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_POST(self) -> None:
        start = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/probe/v1/chat/completions":
            with self.state.lock:
                print(f"probe {time.monotonic()!r}", flush=True)
            self._send(401, {"error": {"message": "set-up probe"}})
            return
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": {"message": f"no route {self.path}"}})
            return
        payload = json.loads(body)
        text = "\n".join(m["content"] for m in payload["messages"])
        digest = hashlib.sha256(body).digest()
        content = answer(text, int.from_bytes(digest[:8], "big"), self.state.occurrence(digest))
        wait_start = time.perf_counter()
        if self.state.latency_s:
            time.sleep(self.state.latency_s)
        injected = time.perf_counter() - wait_start
        self._send(200, {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}]})
        self.state.account(len(text.split()), time.perf_counter() - start, injected)

    def do_GET(self) -> None:
        url = urlparse(self.path)
        if url.path == "/stats":
            self._send(200, self.state.stats())
        elif url.path == "/reset":
            latency_ms = float(parse_qs(url.query).get("latency_ms", ["0"])[0])
            self.state.reset(latency_ms / 1000.0)
            self._send(200, {"ok": True})
        else:
            self._send(404, {"error": {"message": f"no route {url.path}"}})


class Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        # clients that are killed mid-connection (set-up probes) are expected
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def _exit_with_parent(parent: int) -> None:
    """Stop the process once the process that started it is gone."""
    while os.getppid() == parent:
        time.sleep(1)
    os._exit(0)


def main() -> None:
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    Handler.state = StubState()
    server = Server(("127.0.0.1", 0), Handler)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
