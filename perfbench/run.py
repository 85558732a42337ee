#!/usr/bin/env python3
"""End-to-end benchmark of apio: induce -> optimize -> infer/evaluate.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every apio command goes through the real command line code
(``apio.cli.main``) and the production ``OpenAIChatBackend`` +
``CachedBackend`` stack. The backend talks to ``perfbench/stub.py``, a
chat-completions stub started as its own process on 127.0.0.1 that injects
a fixed latency per request. Nothing in ``src`` is patched for the
end-to-end run. All workloads are closed loops driven from this one
process with at most two client threads, and build their inputs from
``--seed`` with ``perfbench/data.py``:

search-live
    ``induce`` then ``optimize`` on a simplification corpus with 20 ms of
    injected latency and an empty run cache: paper operators and dev
    subsample 50, with 2 induction trials, beam 2 and 2 epochs so that a
    pass fits the run. Waiting on the backend dominates; every call is a
    cache miss plus a write.
search-replay
    The same two commands at the paper's induction (10 trials of 3
    instructions), beam 32 and dev subsample 50, with epochs cut to 2,
    against a shared ``backend.cache_dir`` that set-up fills by running
    the same commands once in a separate process. Every timed call is a
    cache hit and no request reaches the stub, so the run is CPU-bound:
    cache reads, Levenshtein fitness, prompt rendering, state writes and
    the final report.
infer-eval
    ``apio infer --workers 2`` over a GEC test file with 25% duplicated
    lines, 50 ms of injected latency and a fresh cache, then ``apio
    evaluate --task gec --m2``: the concurrent path with in-flight
    de-duplication, then the edit-alignment scorer.

A run measures passes of its workload until ``--seconds`` would be
exceeded (at least one) and reports medians over passes. ``setup_s`` is
the median of seven fresh processes, each timed from its start until its
first backend request reaches the stub. For search-replay,
``llm_requests`` and ``prompt_tokens`` are those of the set-up fill, the
cold-cache run of the timed commands; its timed passes must send none.

With ``--trace 1`` a run times half of its passes untraced and half with
``perfbench/tracing.py`` wrapping apio's layers, and reports the
per-layer metrics instead. The metric names and units are those of
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 when every check passed, 1 when one failed and 2 when the checkout lacks
apio's sources.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import data
import stub as stub_model
import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUN_ID = "bench"
SETUP_PROBES = 7
GEC_FOOTER = "Sentence: {input_text}\nCorrected sentence:"

SEARCH = {
    "search-live": {
        "latency_ms": 20,
        "induction": {"n_instructions": 3, "n_trials": 2},
        "optimizer": {"n_epochs": 2, "beam_b": 2, "dev_subsample": 50},
    },
    "search-replay": {
        "latency_ms": 0,
        "induction": {"n_instructions": 3, "n_trials": 10},
        "optimizer": {"n_epochs": 2, "beam_b": 32, "dev_subsample": 50},
    },
}
INFER_LATENCY_MS = 50
INFER_WORKERS = 2
WORKLOADS = (*SEARCH, "infer-eval")


class Stub:
    """The stub process, its port and the probe lines it prints."""

    _opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def __enter__(self) -> "Stub":
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")], stdout=subprocess.PIPE)
        self._buffer = b""
        self.url = f"http://127.0.0.1:{int(self._line(30))}"
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _line(self, timeout: float) -> str | None:
        """Next line of the stub's output, or None after ``timeout``."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("stub exited")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def _get(self, path: str) -> dict:
        with self._opener.open(self.url + path, timeout=30) as response:
            return json.loads(response.read())

    def reset(self, latency_ms: float) -> None:
        self._get(f"/reset?latency_ms={latency_ms}")

    def stats(self) -> dict:
        return self._get("/stats")

    def probe(self, argv: list[str]) -> float:
        """Seconds from starting ``apio <argv>`` in a fresh interpreter
        until its first request reaches the probe endpoint."""
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "apio_main.py"), *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            while True:
                line = self._line(0.05)
                if line is not None and line.startswith("probe ") and float(line.split()[1]) > start:
                    return float(line.split()[1]) - start
                if line is None and proc.poll() is not None:
                    raise RuntimeError(f"set-up probe {argv[0]} exited before its first request")
                if time.monotonic() - start > 60:
                    raise RuntimeError(f"set-up probe {argv[0]} sent no request within 60 s")
        finally:
            proc.terminate()
            proc.wait(timeout=30)


class Warnings(logging.Handler):
    """Counts the warnings apio logs: failed calls, dropped candidates."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class Bench:
    """One benchmark run: builds a workload's inputs, times its passes and
    collects the checks that failed."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, stub: Stub, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.stub = stub
        self.latency_ms = 0
        self.work = work
        self.problems: list[str] = []
        self.pass_count = 0
        self.warnings = Warnings()
        logging.getLogger("apio").addHandler(self.warnings)

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)

    def write_config(self, name: str, cfg: dict) -> str:
        path = self.work / name
        path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        return str(path)

    def apio(self, *argv) -> int:
        """``apio <argv>`` in this process, its printed output discarded."""
        from apio.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            return main([str(a) for a in argv])

    def setup_s(self, argv_for) -> float:
        """Median set-up time of SETUP_PROBES fresh processes."""
        self.stub.reset(0)
        return statistics.median(self.stub.probe(argv_for(i)) for i in range(SETUP_PROBES))

    def passes(self, one_pass, seconds: float) -> list[dict]:
        """Run timed passes until the next would end after ``seconds``."""
        results: list[dict] = []
        start = time.perf_counter()
        while True:
            self.stub.reset(self.latency_ms)
            warned = len(self.warnings.messages)
            t0, c0 = time.perf_counter(), time.process_time()
            result = one_pass(self.pass_count)
            self.pass_count += 1
            result["wall_s"] = time.perf_counter() - t0
            result["cpu_s"] = time.process_time() - c0
            result["stub"] = self.stub.stats()
            result["failed"] += len(self.warnings.messages) - warned
            self.check(result["failed"] == 0, "failed_share is not 0: " + "; ".join(self.warnings.messages[:3]))
            results.append(result)
            if time.perf_counter() - start + result["wall_s"] > seconds:
                return results

    def measure(self, one_pass) -> tuple[list[dict], dict | None]:
        """Untraced passes, plus the per-layer metrics with --trace 1."""
        if not self.trace:
            return self.passes(one_pass, self.seconds), None
        plain = self.passes(one_pass, self.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = self.passes(one_pass, self.seconds / 2)
        finally:
            tracer.uninstall()
        tracer.write(ROOT / ".perfbench" / "traces" / f"{self.workload}-seed{self.seed}.jsonl")
        stub_stats = {k: sum(p["stub"][k] for p in traced) for k in ("requests", "service_s", "injected_s")}
        layers = tracing.layer_metrics(
            tracer.spans,
            len(traced),
            sum(p["wall_s"] for p in traced),
            stub_stats,
            statistics.median(p["wall_s"] for p in plain),
        )
        self.describe_layers(tracer.spans, layers, traced)
        return plain + traced, layers

    def describe_layers(self, spans, layers: dict, traced: list[dict]) -> None:
        """Print self time by span name and whether the workload's design holds."""
        self_s = tracing.self_times(spans)
        total = sum(v for k, v in self_s.items() if not k.startswith("cli.")) or 1.0
        print("self time per traced pass, by span (share of all but the cli.* command spans):")
        for name, value in sorted(self_s.items(), key=lambda kv: -kv[1]):
            share = "" if name.startswith("cli.") else f"{100 * value / total:5.1f}%"
            print(f"  {name:32s} {value / len(traced):10.4f} s  {share}")
        wall = statistics.median(p["wall_s"] for p in traced)
        if self.workload == "search-live":
            share = layers["stub.service_s"] / wall
            verdict = f"stub wait is {100 * share:.0f}% of wall_s"
            held = share > 0.5
        elif self.workload == "infer-eval":
            share = layers["stub.service_s"] / (INFER_WORKERS * layers["cli.infer_s"] or 1.0)
            verdict = f"stub wait fills {100 * share:.0f}% of the client threads' time in cli.infer_s"
            held = share > 0.5
        else:
            local = sum(
                v for k, v in self_s.items()
                if k.startswith(("metrics.", "prompts.", "state.", "gateway.CachedBackend"))
            )
            verdict = (
                f"stub.requests {layers['stub.requests']:g}; metrics, prompts, state and the "
                f"gateway cache hold {100 * local / total:.0f}% of traced self time"
            )
            held = layers["stub.requests"] == 0 and local > 0.5 * total
        print(f"design {'confirmed' if held else 'NOT confirmed'}: {verdict}")

    # -- workloads ----------------------------------------------------------

    def search(self) -> tuple[dict, dict | None]:
        params = SEARCH[self.workload]
        replay = self.workload == "search-replay"
        self.latency_ms = params["latency_ms"]
        sources, columns = data.simplification_corpus(self.seed)
        (self.work / "asset.orig").write_text("\n".join(sources) + "\n", encoding="utf-8")
        refs = []
        for j, column in enumerate(columns):
            refs.append(str(self.work / f"asset.simp.{j}"))
            Path(refs[-1]).write_text("\n".join(column) + "\n", encoding="utf-8")

        def config(url: str, cache_dir: Path | None) -> dict:
            return {
                "task": "simplify",
                "seed": self.seed,
                "backend": {
                    "base_url": url,
                    "model": "stub",
                    "retry_max": 2,
                    "timeout_s": 30,
                    "cache_dir": str(cache_dir) if cache_dir else None,
                },
                "data": {
                    "format": "asset",
                    "source": str(self.work / "asset.orig"),
                    "references": refs,
                    "train_size": 200,
                    "dev_size": 200,
                    "split_seed": self.seed,
                },
                "induction": params["induction"],
                "optimizer": params["optimizer"],
            }

        cfg = self.write_config("search.json", config(self.stub.url + "/v1", self.work / "shared-cache" if replay else None))

        def commands(runs: Path) -> list[list]:
            return [
                ["induce", "--config", cfg, "--runs-dir", runs, "--run-id", RUN_ID],
                ["optimize", "--config", cfg, "--runs-dir", runs, "--run-id", RUN_ID],
            ]

        setup_s = None
        if not self.trace:
            probe_cfg = self.write_config("probe.json", config(self.stub.url + "/probe/v1", None))
            setup_s = self.setup_s(
                lambda i: ["induce", "--config", probe_cfg, "--runs-dir", self.work / f"probe-{i}", "--run-id", RUN_ID]
            )

        fill = self.work / "fill" / RUN_ID
        billed = None
        if replay:
            self.stub.reset(0)
            log = self.work / "fill.log"
            with log.open("w") as handle:
                for argv in commands(self.work / "fill"):
                    code = subprocess.run(
                        [sys.executable, str(HERE / "apio_main.py"), *map(str, argv)],
                        stdout=handle, stderr=subprocess.STDOUT, timeout=150,
                    ).returncode
                    self.check(code == 0, f"set-up fill: apio {argv[0]} exited {code}")
            fill_warnings = [line for line in log.read_text().splitlines() if line.startswith("WARNING")]
            self.check(not fill_warnings, "set-up fill logged failures: " + "; ".join(fill_warnings[:3]))
            billed = self.stub.stats()

        def one_pass(i: int) -> dict:
            runs = self.work / f"runs-{i}"
            codes = [self.apio(*argv) for argv in commands(runs)]
            run = runs / RUN_ID
            self.check(codes == [0, 0], f"apio induce/optimize exited {codes}")
            if codes != [0, 0]:
                return {"attempted": 2, "failed": sum(c != 0 for c in codes)}
            report = json.loads((run / "final_report.json").read_text())
            trials = json.loads((run / "trials.json").read_text())["trials"]
            history = json.loads((run / "history.json").read_text())["epochs"]
            seed_fitness = max(t["fitness"] for t in trials if t["fitness"] is not None)
            self.check(
                report["best_fitness"] > seed_fitness,
                f"best_fitness {report['best_fitness']} is not above the seed prompt's {seed_fitness}",
            )
            if replay:
                for name in ("history.json", "state.json", "best_prompt.txt", "final_report.json"):
                    self.check(
                        (run / name).read_bytes() == (fill / name).read_bytes(),
                        f"replayed {name} differs from the cold fill's",
                    )
            failed_trials = sum(t["error"] is not None for t in trials)
            return {
                "attempted": 2 + len(trials) + sum(len(e["candidates"]) for e in history),
                "failed": failed_trials,
                "best_fitness": report["best_fitness"],
                "error_words": report["best_raw_error_full_dev"],
            }

        results, layers = self.measure(one_pass)
        if replay:
            self.check(all(p["stub"]["requests"] == 0 for p in results), "a replay pass reached the stub")
        else:
            billed = {k: statistics.median(p["stub"][k] for p in results) for k in ("requests", "prompt_tokens")}
        metrics = self.common(results, setup_s, billed)
        metrics["best_fitness"] = (_median(results, "best_fitness"), "fitness")
        metrics["full_dev_error"] = metrics["error_words"]
        return metrics, layers

    def infer_eval(self) -> tuple[dict, dict | None]:
        self.latency_ms = INFER_LATENCY_MS
        m2_text, lines, rules, planted = data.gec_test_set(self.seed)
        m2, source, prompt = self.work / "test.m2", self.work / "test.src", self.work / "prompt.txt"
        m2.write_text(m2_text, encoding="utf-8")
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        prompt_text = "\n".join(f'* Replace "{w}" with "{r}".' for w, r in rules) + "\n" + GEC_FOOTER
        prompt.write_text(prompt_text + "\n", encoding="utf-8")
        expected = [stub_model.rewrite(prompt_text.replace("{input_text}", line)) for line in lines]
        # planted errors are one-token substitutions set apart and the rules
        # cover the first len(rules) kinds, so each covered error is a true
        # positive, each other one a miss, and nothing else changes
        counts = [[sum(k < len(rules) for k in kinds), 0, sum(k >= len(rules) for k in kinds)] for kinds in planted]
        tp, fn = sum(c[0] for c in counts), sum(c[2] for c in counts)
        recall = tp / (tp + fn)
        f05 = 1.25 * recall / (0.25 + recall) if tp else 0.0

        def config(url: str, cache_dir: Path) -> dict:
            return {
                "task": "gec",
                "seed": self.seed,
                "backend": {"base_url": url, "model": "stub", "retry_max": 2, "timeout_s": 30,
                            "cache_dir": str(cache_dir)},
            }

        def infer_argv(cfg: str, output: Path) -> list:
            return ["infer", "--config", cfg, "--prompt", prompt, "--input", source,
                    "--output", output, "--workers", INFER_WORKERS]

        setup_s = None
        if not self.trace:
            setup_s = self.setup_s(lambda i: [str(a) for a in infer_argv(
                self.write_config(f"probe-{i}.json", config(self.stub.url + "/probe/v1", self.work / f"probe-cache-{i}")),
                self.work / f"probe-{i}.out",
            )])

        def one_pass(i: int) -> dict:
            cfg = self.write_config(f"infer-{i}.json", config(self.stub.url + "/v1", self.work / f"cache-{i}"))
            predictions, report = self.work / f"pred-{i}.txt", self.work / f"eval-{i}.json"
            t0 = time.perf_counter()
            code = self.apio(*infer_argv(cfg, predictions))
            infer_s = time.perf_counter() - t0
            code_eval = self.apio("evaluate", "--task", "gec", "--predictions", predictions,
                                  "--output", report, "--m2", m2)
            self.check([code, code_eval] == [0, 0], f"apio infer/evaluate exited {[code, code_eval]}")
            if [code, code_eval] != [0, 0]:
                return {"attempted": 2, "failed": (code != 0) + (code_eval != 0)}
            outputs = predictions.read_text(encoding="utf-8").splitlines()
            self.check(outputs == expected, "predictions differ from the stub's rewrite")
            scored = json.loads(report.read_text())
            self.check(scored["per_sample"] == counts, "evaluate's per-sentence counts differ from the planted edits")
            self.check(abs(scored["aggregate"] - f05) < 1e-9, f"evaluate's F0.5 {scored['aggregate']} is not {f05}")
            lev = json.loads(report.with_suffix(".levenshtein.json").read_text())
            self.check(abs(lev["aggregate"] - fn / len(lines)) < 1e-9, "evaluate's Levenshtein mean is off")
            return {
                "attempted": 2 + len(lines),
                "failed": sum(o == "<FAILED>" for o in outputs),
                "lines_per_s": len(lines) / infer_s,
                "error_words": lev["aggregate"],
            }

        results, layers = self.measure(one_pass)
        unique = len(set(lines))
        self.check(
            all(p["stub"]["requests"] == unique for p in results),
            f"stub requests differ from the {unique} distinct lines",
        )
        billed = {k: statistics.median(p["stub"][k] for p in results) for k in ("requests", "prompt_tokens")}
        metrics = self.common(results, setup_s, billed)
        metrics["lines_per_s"] = (_median(results, "lines_per_s"), "lines/s")
        return metrics, layers

    def common(self, results: list[dict], setup_s: float | None, billed: dict) -> dict:
        attempted = sum(p["attempted"] for p in results)
        failed = sum(p["failed"] for p in results)
        self.attempted, self.failed = attempted, failed
        out = {
            "wall_s": (statistics.median(p["wall_s"] for p in results), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in results), "s"),
            "llm_requests": (billed["requests"], "count"),
            "prompt_tokens": (billed["prompt_tokens"], "tokens"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "failed_share": (failed / attempted, "ratio"),
            "error_words": (_median(results, "error_words"), "words"),
        }
        if setup_s is not None:
            out["setup_s"] = (setup_s, "s")
        walls = ", ".join(f"{p['wall_s']:.3f}" for p in results)
        print(f"{self.workload} seed {self.seed}: {len(results)} passes, wall_s {walls}")
        return out


def _median(results: list[dict], key: str) -> float:
    """Median of ``key`` over the passes that got far enough to report it."""
    values = [p[key] for p in results if key in p]
    return statistics.median(values) if values else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so the stub is stopped and the work files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "apio" / "cli.py").is_file():
        print(f"error: no apio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ.setdefault("APIO_API_KEY", "benchmark")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        with Stub() as stub:
            bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), stub, work)
            metrics, layers = bench.search() if args.workload in SEARCH else bench.infer_eval()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:14.6g} {unit}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    if layers is None:
        values = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted}
    else:
        values = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": values}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
