#!/usr/bin/env python3
"""Benchmark the per-entry cost of ``apio.gateway.CachedBackend``.

Sends 2000 distinct inference requests (prompts of ~1.5 KB, answers of
~100 characters) through a cache on an empty directory, so that each is a
miss plus a write, then sends them again, so that each is a hit. The inner
backend answers at once, so the figures are the cache's own cost. Each
pass runs on 1 thread and on as many as a command's default ``--workers``
pool holds; each timing is the best of three runs, each run on a fresh
cache directory. A last pass sends one distinct miss from each of the
default pool's threads at once while another connection holds the
cache's write lock, with ``CACHE_BUSY_TIMEOUT_S`` at 0.2 s, and checks
that the writes do not wait out the timeout one after another. Run with
``src`` on the import path:

    PYTHONPATH=src python benchmarks/bench_cache.py
"""

from __future__ import annotations

import contextlib
import logging
import random
import sqlite3
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from apio import gateway
from apio.cli import DEFAULT_WORKERS
from apio.gateway import INFER, Backend, CachedBackend, ChatRequest

N_REQUESTS = 2000
LOCKED_TIMEOUT_S = 0.2


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


def _locked_run(threads: int) -> float:
    """Seconds for ``threads`` distinct misses, sent at once, to finish
    while another connection holds the write lock of a fresh cache."""
    with tempfile.TemporaryDirectory() as cache_dir:
        backend = CachedBackend(_Instant(), cache_dir)
        requests = [ChatRequest(f"locked {i}", INFER) for i in range(threads)]
        with contextlib.closing(sqlite3.connect(Path(cache_dir) / "completions.sqlite3", isolation_level=None)) as db:
            db.execute("BEGIN IMMEDIATE")
            with ThreadPoolExecutor(max_workers=threads) as pool:
                start = time.perf_counter()
                answers = list(pool.map(backend.complete, requests))
                elapsed = time.perf_counter() - start
            db.execute("ROLLBACK")
        backend.close()
    # sanity: every miss keeps the answer that it could not store
    assert answers == [request.content[-100:] for request in requests]
    return elapsed


def main() -> None:
    requests = _requests(random.Random(0))
    print(f"{N_REQUESTS} distinct requests, instant inner backend\n")
    for threads in (1, DEFAULT_WORKERS):
        runs = [_run(requests, threads) for _ in range(3)]
        miss_s = min(r[0] for r in runs)
        hit_s = min(r[1] for r in runs)
        print(f"  {threads:2d} thread(s): miss + write {miss_s / N_REQUESTS * 1e6:7.1f} us each,"
              f" hit {hit_s / N_REQUESTS * 1e6:7.1f} us each")

    busy_timeout_s = gateway.CACHE_BUSY_TIMEOUT_S
    gateway.CACHE_BUSY_TIMEOUT_S = LOCKED_TIMEOUT_S
    logging.disable(logging.WARNING)  # each miss logs its failed write
    try:
        locked_s = _locked_run(DEFAULT_WORKERS)
    finally:
        gateway.CACHE_BUSY_TIMEOUT_S = busy_timeout_s
        logging.disable(logging.NOTSET)
    serial_s = DEFAULT_WORKERS * LOCKED_TIMEOUT_S
    print(f"\n  {DEFAULT_WORKERS} misses behind a write-locked cache, {LOCKED_TIMEOUT_S} s busy timeout:"
          f" {locked_s:.2f} s (waits one after another: {serial_s:.1f} s)")
    assert locked_s < serial_s / 4, "writes behind a locked cache waited out the timeout one after another"


if __name__ == "__main__":
    main()
