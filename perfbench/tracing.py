"""Span tracing of apio's layers for the benchmark's traced run.

``Tracer.install`` replaces the public entry points of each ``apio``
module with wrappers, from outside the package: class methods on their
class, free functions at the modules that import them. Each wrapper
records a span (name, start, end, parent span, thread) plus what the
layer metrics need from the call's arguments or result. Spans stay in
memory until ``write`` dumps them; ``uninstall`` restores the originals.

A span's self time is its duration minus the durations of its child
spans. ``layer_metrics`` turns spans into the per-layer metrics listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

from stub import purpose

COMMANDS = ("cmd_induce", "cmd_optimize", "cmd_infer", "cmd_evaluate")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    info: object = None
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name, info=None) -> None:
        """Trace ``owner.attr``. ``name`` is a string or a function of the
        call's arguments; ``info(args, result)`` returns extra span data."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(
                next(tracer._ids),
                name if isinstance(name, str) else name(args),
                stack[-1] if stack else None,
                threading.get_ident(),
            )
            tracer.spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import apio.cli as cli
        import apio.config as config
        import apio.induction as induction
        import apio.optimizer as optimizer
        from apio.gateway import Backend
        from apio.optimizer import PromptOptimizer
        from apio.prompts import Prompt
        from apio.state import RunDir

        self.wrap(Backend, "complete", lambda a: f"gateway.{type(a[0]).__name__}",
                  lambda a, r: purpose(a[1].text()))
        self.wrap(PromptOptimizer, "run_epoch", "optimizer.run_epoch", _epoch_info)
        self.wrap(PromptOptimizer, "improve", "optimizer.improve", lambda a, r: len(r))
        self.wrap(PromptOptimizer, "rephrase", "optimizer.rephrase", lambda a, r: len(r))
        self.wrap(PromptOptimizer, "permute", "optimizer.permute", lambda a, r: int(r is not None))
        self.wrap(PromptOptimizer, "fitness", "optimizer.fitness")
        self.wrap(cli, "best_of_trials", "induction.best_of_trials",
                  lambda a, r: (len(r[1]), sum(t.error is not None for t in r[1])))
        for module in (cli, optimizer):
            self.wrap(module, "min_ref_levenshtein", "metrics.levenshtein",
                      lambda a, r: len(a[0].split()) * sum(len(ref.split()) for ref in a[1]))
        self.wrap(optimizer, "word_levenshtein", "metrics.levenshtein",
                  lambda a, r: len(a[0].split()) * len(a[1].split()))
        self.wrap(cli, "sari", "metrics.sari")
        self.wrap(cli, "f05_with_counts", "metrics.gec")
        self.wrap(Prompt, "render", "prompts.render")
        self.wrap(cli, "parse_prompt", "prompts.parse")
        self.wrap(optimizer, "parse_new_instruction", "prompts.parse")
        for module in (optimizer, induction):
            self.wrap(module, "clean_completion", "prompts.parse")
        for module in (cli, optimizer):
            self.wrap(module, "postprocess_output", "prompts.postprocess")
        self.wrap(optimizer, "improve_meta_prompt", "prompts.meta")
        self.wrap(optimizer, "rephrase_meta_prompt", "prompts.meta")
        self.wrap(induction, "induction_meta_prompt", "prompts.meta")
        self.wrap(RunDir, "write_state", "state.write", lambda a, r: a[0].state_path.stat().st_size)
        self.wrap(RunDir, "write_history", "state.write", lambda a, r: a[0].history_path.stat().st_size)
        self.wrap(RunDir, "write_json", "state.write", lambda a, r: Path(a[1]).stat().st_size)
        self.wrap(cli, "load_config", "config.load")
        self.wrap(cli, "split_pairs", "config.split")
        self.wrap(config, "load_asset", "corpus.load")
        for module in (config, cli):
            self.wrap(module, "load_m2", "corpus.load")
        for command in COMMANDS:
            self.wrap(cli, command, f"cli.{command}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _epoch_info(args, pool) -> tuple[int, int]:
    """(children scored, children admitted to the new pool)."""
    scored = {c["id"] for c in args[0].history[-1]["candidates"]}
    return len(scored), sum(c.id in scored for c in pool)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of time intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time by span name."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.duration - child_s[s.id]
    return dict(out)


def layer_metrics(
    spans: list[Span], passes: int, wall_s: float, stub_stats: dict, untraced_wall_s: float
) -> dict[str, float]:
    """Per-layer metrics per workload pass, from the spans of ``passes``
    traced passes that took ``wall_s`` and sent the stub ``stub_stats``.

    ``trace.unaccounted_s`` is the wall time during which no layer span
    was open on any thread; on a single thread that equals wall time
    minus the sum of the layers' self times.
    """
    by_id = {s.id: s for s in spans}
    self_s = defaultdict(float, self_times(spans))
    dur: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        dur[s.name] += s.duration
        calls[s.name] += 1
        named[s.name].append(s)

    outer = [
        s for s in spans
        if s.name.startswith("gateway.")
        and (s.parent is None or not by_id[s.parent].name.startswith("gateway."))
    ]
    http = named["gateway.OpenAIChatBackend"]
    cache = named["gateway.CachedBackend"]
    misses = len({s.parent for s in http} & {s.id for s in cache})
    hits = len(cache) - misses
    epochs = named["optimizer.run_epoch"]
    epoch_ids = {s.id for s in epochs}
    scored = sum(s.info[0] for s in epochs if s.info)
    admitted = sum(s.info[1] for s in epochs if s.info)
    proposed = sum(
        s.info or 0
        for op in ("improve", "rephrase", "permute")
        for s in named[f"optimizer.{op}"]
        if s.parent in epoch_ids
    )
    epoch_scorings = sum(s.parent in epoch_ids for s in named["optimizer.fitness"])
    trials = [s.info for s in named["induction.best_of_trials"] if s.info]
    cells = sum(s.info or 0 for s in named["metrics.levenshtein"])
    report_s = 0.0
    for command in named["cli.cmd_optimize"]:
        ends = [e.end for e in epochs if command.start <= e.start <= command.end]
        if ends:
            report_s += command.end - max(ends)
    layer_spans = [(s.start, s.end) for s in spans if not s.name.startswith("cli.")]

    totals = {
        "gateway.calls": len(outer),
        **{f"gateway.calls.{p}": sum(s.info == p for s in outer)
           for p in ("induce", "improve", "rephrase", "infer")},
        "gateway.cache_hits": hits,
        "gateway.cache_misses": misses,
        "gateway.cache_self_s": self_s["gateway.CachedBackend"],
        "gateway.http_calls": len(http),
        "gateway.http_retries": max(0, stub_stats["requests"] - len(http)),
        "gateway.http_self_s": dur["gateway.OpenAIChatBackend"] - stub_stats["service_s"],
        "gateway.failures": sum(s.error for s in outer),
        "optimizer.improve_s": dur["optimizer.improve"],
        "optimizer.rephrase_s": dur["optimizer.rephrase"],
        "optimizer.permute_s": dur["optimizer.permute"],
        "optimizer.fitness_s": dur["optimizer.fitness"],
        "optimizer.self_s": sum(v for k, v in self_s.items() if k.startswith("optimizer.")),
        "optimizer.proposed": proposed,
        "optimizer.duplicates": proposed - epoch_scorings,
        "optimizer.scored": scored,
        "optimizer.admitted": admitted,
        "induction.trials": sum(t[0] for t in trials),
        "induction.failed_trials": sum(t[1] for t in trials),
        "induction.s": dur["induction.best_of_trials"],
        "induction.self_s": self_s["induction.best_of_trials"],
        "metrics.levenshtein.calls": calls["metrics.levenshtein"],
        "metrics.levenshtein.cells": cells,
        "metrics.levenshtein.s": dur["metrics.levenshtein"],
        "metrics.sari.calls": calls["metrics.sari"],
        "metrics.sari.s": dur["metrics.sari"],
        "metrics.gec.calls": calls["metrics.gec"],
        "metrics.gec.s": dur["metrics.gec"],
        "prompts.render.calls": calls["prompts.render"],
        "prompts.render.s": dur["prompts.render"],
        "prompts.parse.s": dur["prompts.parse"],
        "prompts.postprocess.s": dur["prompts.postprocess"],
        "prompts.meta.s": dur["prompts.meta"],
        "state.writes": calls["state.write"],
        "state.bytes_written": sum(s.info or 0 for s in named["state.write"]),
        "state.write_s": dur["state.write"],
        "config.load_s": dur["config.load"],
        "config.split_s": dur["config.split"],
        "corpus.load_s": dur["corpus.load"],
        "cli.report_s": report_s,
        "cli.infer_s": dur["cli.cmd_infer"],
        "cli.evaluate_s": dur["cli.cmd_evaluate"],
        "stub.requests": stub_stats["requests"],
        "stub.service_s": stub_stats["service_s"],
        "stub.injected_s": stub_stats["injected_s"],
        "trace.unaccounted_s": wall_s - _covered(layer_spans),
    }
    n = max(1, passes)
    out = {k: v / n for k, v in totals.items()}
    # ratios, percentiles and per-unit costs are not per pass
    epoch_s = [s.duration for s in epochs]
    http_s = [s.duration for s in http]
    out.update({
        "gateway.hit_ratio": hits / len(cache) if cache else 0.0,
        "gateway.latency_p50_ms": 1000 * _percentile(http_s, 0.50),
        "gateway.latency_p99_ms": 1000 * _percentile(http_s, 0.99),
        "optimizer.epoch_s_p50": statistics.median(epoch_s) if epoch_s else 0.0,
        "optimizer.epoch_s_max": max(epoch_s, default=0.0),
        "optimizer.admit_ratio": admitted / scored if scored else 0.0,
        "metrics.levenshtein.ns_per_cell": 1e9 * dur["metrics.levenshtein"] / cells if cells else 0.0,
        "trace.overhead": (wall_s / n) / untraced_wall_s - 1 if untraced_wall_s else 0.0,
    })
    return out
