#!/usr/bin/env python3
"""Benchmark the per-request client cost of ``apio.gateway.OpenAIChatBackend``.

Starts ``perfbench/stub.py`` as its own process, at 0 ms of injected
latency, and sends 2000 distinct inference requests to it from one thread,
over the one kept-alive connection that thread opens. Each answer must
equal the stub's ``rewrite`` of the request. It prints the client's CPU
time and the wall time per request, each the best of three runs, each run
on a fresh backend. The stub's own time is in the wall figure only. Run
with ``src`` on the import path:

    PYTHONPATH=src python benchmarks/bench_http.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import stub  # noqa: E402 - perfbench/ is put on the import path above

from apio.gateway import INFER, ChatRequest, OpenAIChatBackend  # noqa: E402

N_REQUESTS = 2000


def _requests() -> list[ChatRequest]:
    """Distinct inference prompts of two rule bullets and an input line,
    which the stub answers by applying the rules."""
    return [
        ChatRequest(
            f'* Replace "w{i % 97}" with "v{i % 89}".\n* Replace "x" with "y".\n'
            f"Input: request {i} w{i % 97} x and w{i % 31}\nOutput:",
            INFER,
        )
        for i in range(N_REQUESTS)
    ]


def _run(url: str, requests: list[ChatRequest]) -> tuple[float, float]:
    """Client CPU seconds and wall seconds for ``requests`` sent one after
    another on a fresh backend."""
    backend = OpenAIChatBackend(base_url=f"{url}/v1", model="stub", api_key="bench")
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        answers = [backend.complete(request) for request in requests]
        cpu_s, wall_s = time.process_time() - cpu, time.perf_counter() - wall
    finally:
        backend.close()
    # sanity: the stub answered every request, and the client read it whole
    assert answers == [stub.rewrite(request.content) for request in requests]
    return cpu_s, wall_s


def main() -> None:
    # the stub listens on 127.0.0.1, which no proxy in the environment may take
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    requests = _requests()
    proc = subprocess.Popen([sys.executable, str(PERFBENCH / "stub.py")], stdout=subprocess.PIPE)
    try:
        url = f"http://127.0.0.1:{int(proc.stdout.readline())}"
        runs = [_run(url, requests) for _ in range(3)]
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
    cpu_s = min(run[0] for run in runs)
    wall_s = min(run[1] for run in runs)
    print(f"{N_REQUESTS} distinct requests on 1 thread, stub at 0 ms latency\n")
    print(f"  client CPU {cpu_s / N_REQUESTS * 1e6:6.1f} us each, wall {wall_s / N_REQUESTS * 1e6:6.1f} us each")


if __name__ == "__main__":
    main()
