#!/usr/bin/env python3
"""Benchmark the per-entry cost of ``apio.gateway.CachedBackend``.

Sends 2000 distinct inference requests (prompts of ~1.5 KB, answers of
~100 characters) through a cache on an empty directory, so that each is a
miss plus a write, then sends them again, so that each is a hit. The inner
backend answers at once, so the figures are the cache's own cost. Each
pass runs on 1 thread and on as many as a command's default ``--workers``
pool holds; each timing is the best of three runs, each run on a fresh
cache directory. Run with ``src`` on the import path:

    PYTHONPATH=src python benchmarks/bench_cache.py
"""

from __future__ import annotations

import random
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from apio.cli import DEFAULT_WORKERS
from apio.gateway import INFER, Backend, CachedBackend, ChatRequest

N_REQUESTS = 2000


class _Instant(Backend):
    model = "bench-model"

    def _complete(self, request: ChatRequest) -> str:
        return request.content[-100:]


def _requests(rng: random.Random) -> list[ChatRequest]:
    words = [f"w{i}" for i in range(2000)]
    return [
        ChatRequest(f"request {i}\n" + " ".join(rng.choices(words, k=300)), INFER)
        for i in range(N_REQUESTS)
    ]


def _run(requests: list[ChatRequest], threads: int) -> tuple[float, float]:
    """Seconds for the miss pass and for the hit pass on a fresh cache."""
    with tempfile.TemporaryDirectory() as cache_dir:
        backend = CachedBackend(_Instant(), cache_dir)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            start = time.perf_counter()
            list(pool.map(backend.complete, requests))
            miss_s = time.perf_counter() - start
            start = time.perf_counter()
            list(pool.map(backend.complete, requests))
            hit_s = time.perf_counter() - start
        backend.close()
    # sanity: one inner call per distinct request, every repeat a hit
    assert (backend.inner.calls.total(), backend.calls.total()) == (len(requests), 2 * len(requests))
    return miss_s, hit_s


def main() -> None:
    requests = _requests(random.Random(0))
    print(f"{N_REQUESTS} distinct requests, instant inner backend\n")
    for threads in (1, DEFAULT_WORKERS):
        runs = [_run(requests, threads) for _ in range(3)]
        miss_s = min(r[0] for r in runs)
        hit_s = min(r[1] for r in runs)
        print(f"  {threads:2d} thread(s): miss + write {miss_s / N_REQUESTS * 1e6:7.1f} us each,"
              f" hit {hit_s / N_REQUESTS * 1e6:7.1f} us each")


if __name__ == "__main__":
    main()
