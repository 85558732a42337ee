"""``apio`` command line: induce | optimize | infer | evaluate | baseline.

Exit codes: 0 success, 1 engine failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import logging
import sys
import time
from collections.abc import Callable, Iterator
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

from .config import ConfigurationError, RunConfig, load_config, split_pairs
from .corpus import (
    M2Record,
    SamplePair,
    load_asset,
    load_jsonl,
    load_m2,
    reference_texts,
)
from .gateway import (
    Backend,
    CachedBackend,
    ChatRequest,
    GatewayError,
    INFER,
    OpenAIChatBackend,
    ScriptedBackend,
)
from .induction import InductionError, best_of_trials
from .metrics.gec import f05_with_counts
from .metrics.levenshtein import min_ref_levenshtein
from .metrics.sari import sari
from .optimizer import (
    Candidate,
    PromptOptimizer,
    gather_scoring,
    rank_key,
    select_dev_subsample,
    submit_scoring,
)
from .prompts import (
    INPUT_SLOT,
    Prompt,
    TASK_TEMPLATES,
    parse_prompt,
    postprocess_output,
)
from .seeding import derived_rng
from .state import BackendState, RunDir, RunState, RunStateError, write_json

log = logging.getLogger(__name__)

FAILED_PLACEHOLDER = "<FAILED>"
# inference requests in flight at once unless --workers says otherwise
DEFAULT_WORKERS = 8


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _default_run_id() -> str:
    return time.strftime("run-%Y%m%d-%H%M%S")


def _overrides(args: argparse.Namespace) -> dict:
    """The config values given as flags; ``load_config`` skips those left None."""
    sub = getattr(args, "dev_subsample", None)
    return {
        "task": getattr(args, "task", None),
        "seed": getattr(args, "seed", None),
        # a count, else "all" or a word for the config check to refuse
        "optimizer.dev_subsample": int(sub) if sub and sub.lstrip("-").isdigit() else sub,
    }


def _build_backend(args: argparse.Namespace, cfg: RunConfig, run: RunDir | None) -> Backend:
    script = getattr(args, "script", None)
    if script:
        return ScriptedBackend.from_file(script)
    inner = OpenAIChatBackend(
        base_url=cfg.backend.base_url,
        model=cfg.backend.model,
        retry_max=cfg.backend.retry_max,
        timeout_s=cfg.backend.timeout_s,
        max_tokens=cfg.backend.max_tokens,
    )
    cache_dir = cfg.backend.cache_dir or (run.cache_path if run is not None else None)
    return CachedBackend(inner, cache_dir) if cache_dir else inner


@contextlib.contextmanager
def _executor(args: argparse.Namespace) -> Iterator[ThreadPoolExecutor]:
    """The command's inference pool of ``--workers`` threads, shut down
    when the command ends. An epoch queues the scoring of all its children
    up front, so a command that fails or is interrupted cancels the queued
    requests instead of sending them."""
    pool = ThreadPoolExecutor(max_workers=args.workers, thread_name_prefix="apio-infer")
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


@contextlib.contextmanager
def _open_run(
    args: argparse.Namespace, cfg: RunConfig, run: RunDir, overwrite: bool
) -> Iterator[tuple[Backend, ThreadPoolExecutor]]:
    """Build the backend, then make ``run`` (its state is kept unless
    ``overwrite``) and hold its lock, and yield the backend and the
    ``--workers`` pool. A usage error of the backend leaves no run."""
    backend = _build_backend(args, cfg, run)
    with contextlib.ExitStack() as stack:
        # undone in reverse: the pool shuts down, the backend closes, the lock goes
        stack.callback(run.release_lock)
        stack.callback(backend.close)
        if run.state_path.exists() and not overwrite:
            raise RunStateError(f"run {run.run_id!r} already exists at {run.path}; --force overwrites it")
        run.acquire_lock()
        yield backend, stack.enter_context(_executor(args))


def _backend_state(args: argparse.Namespace, backend: Backend) -> BackendState:
    if isinstance(backend, ScriptedBackend):
        return BackendState("scripted", str(args.script), backend.consumed_state())
    return BackendState("live")


def _read_lines_raw(path: str | Path) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n") if text else []


def _write_lines(path: str | Path, lines: list[str]) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _infer_lines(
    render: Callable[[str], str], lines: list[str], backend: Backend, executor: Executor
) -> tuple[list[str], int]:
    """Order-preserving inference over input lines, each rendered into a
    prompt by ``render`` and retried once; a line that still fails becomes
    ``<FAILED>`` and empty lines pass through untouched. Returns (outputs,
    failure count)."""

    def one(line: str) -> str:
        if not line.strip():
            return ""
        for attempt in (0, 1):
            try:
                raw = backend.complete(ChatRequest(render(line), INFER, attempt_tag=attempt))
                return postprocess_output(raw).replace("\n", " ")
            except GatewayError as exc:
                log.warning("inference failed (attempt %d): %s", attempt, exc)
        return FAILED_PLACEHOLDER

    outputs = list(executor.map(one, lines))
    return outputs, sum(1 for o in outputs if o == FAILED_PLACEHOLDER)


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------


def cmd_induce(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    template = TASK_TEMPLATES[cfg.task]
    train, dev = split_pairs(cfg)
    run = RunDir(args.runs_dir, args.run_id or _default_run_id())
    dev_eval = select_dev_subsample(dev, cfg.optimizer)
    with _open_run(args, cfg, run, args.force) as (backend, pool):

        def fitness_fn(prompt: Prompt, pairs, via: Backend) -> Callable[[], float]:
            scoring = submit_scoring(prompt, pairs, via, pool)
            return lambda: -gather_scoring(scoring)[0]

        prompt, trials = best_of_trials(train, dev_eval, cfg.induction, template, backend, fitness_fn)
        run.prompt_path.write_text(prompt.text() + "\n", encoding="utf-8")
        run.write_json(run.trials_path, {"trials": [asdict(t) for t in trials]})
        run.write_state(RunState(run.run_id, "induction", cfg, _backend_state(args, backend)))
    best_fitness = max(t.fitness for t in trials if t.fitness is not None)
    print(f"induced prompt written to {run.prompt_path} (dev fitness {best_fitness:.4f})")
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def _persist_epoch(
    run: RunDir,
    cfg: RunConfig,
    args: argparse.Namespace,
    backend: Backend,
    engine: PromptOptimizer,
    pool: list[Candidate],
    epoch: int,
    seed_prompt: Prompt,
) -> None:
    run.write_history(engine.history)
    phase = "optimization" if epoch < cfg.optimizer.n_epochs else "done"
    run.write_state(RunState(run.run_id, phase, cfg, _backend_state(args, backend), epoch, engine.next_id,
                             [c.to_dict() for c in pool], seed_prompt.text()))


def _task_metric(
    cfg: RunConfig, records: list[M2Record] | None, pairs: list[SamplePair], outputs: list[str]
) -> tuple[str, float] | None:
    if cfg.task == "simplify":
        scores = [sari(p.source, o, p.references) for p, o in zip(pairs, outputs)]
        return "sari", sum(scores) / len(scores)
    if records is not None:
        try:
            aligned = [records[int(p.id.split("-")[1])] for p in pairs]
        except (IndexError, ValueError):
            return None
        score, _ = f05_with_counts(aligned, outputs)
        return "f05-approx", score
    return None


def cmd_optimize(args: argparse.Namespace) -> int:
    """Optimize a fresh run from its prompt, or resume a persisted run
    from its state file; both then run the same remaining epochs."""
    state, overwrite = None, True  # a resumed run rewrites its own state
    if args.resume:
        run = RunDir(args.runs_dir, args.resume)
        state = run.read_state()
        if state.phase == "induction":
            raise RunStateError(f"run {args.resume!r} is in phase 'induction', nothing to resume")
        cfg = state.config
        seed_prompt = parse_prompt(state.seed_prompt)
        args.script = args.script or state.backend.script
    else:
        cfg = load_config(args.config, _overrides(args))
        run = RunDir(args.runs_dir, args.run_id or _default_run_id())
        prompt_file = args.prompt or (run.prompt_path if run.prompt_path.exists() else None)
        if prompt_file is None:
            raise ConfigurationError("no --prompt file given and the run has no induced prompt")
        seed_prompt = parse_prompt(Path(prompt_file).read_text(encoding="utf-8").rstrip("\n"))
        # continuing an induction run in place is fine; clobbering a prior
        # optimization needs --force (or --resume to continue it)
        overwrite = args.force or not run.state_path.exists() or run.read_state().phase == "induction"
    train, dev = split_pairs(cfg)
    template = TASK_TEMPLATES[cfg.task]
    with _open_run(args, cfg, run, overwrite) as (backend, executor):
        engine = PromptOptimizer(train, dev, cfg.optimizer, backend, template, executor)
        if state is None:
            pool, start_epoch = [engine.score_seed(seed_prompt)], 0
            _persist_epoch(run, cfg, args, backend, engine, pool, 0, seed_prompt)
        else:
            if state.backend.consumed is not None:
                backend.restore_consumed(state.backend.consumed)
            engine.history = run.read_history(state.epoch)
            engine.next_id = state.next_id
            try:
                pool = [Candidate.from_dict(c) for c in state.pool]
            except (KeyError, TypeError) as exc:
                raise RunStateError(
                    f"state file {run.state_path} holds a malformed pool entry: {exc!r}"
                ) from exc
            start_epoch = state.epoch
        return _run_optimization(args, run, cfg, backend, engine, pool, seed_prompt, start_epoch)


def _run_optimization(
    args: argparse.Namespace,
    run: RunDir,
    cfg: RunConfig,
    backend: Backend,
    engine: PromptOptimizer,
    pool: list[Candidate],
    seed_prompt: Prompt,
    start_epoch: int,
) -> int:
    n_epochs = cfg.optimizer.n_epochs
    stop_after = getattr(args, "stop_after_epoch", None)
    for epoch in range(start_epoch + 1, n_epochs + 1):
        pool = engine.run_epoch(pool, epoch)
        _persist_epoch(run, cfg, args, backend, engine, pool, epoch, seed_prompt)
        log.info("epoch %d/%d: best fitness %.4f", epoch, n_epochs, pool[0].fitness)
        if stop_after is not None and epoch >= stop_after and epoch < n_epochs:
            print(f"stopped after epoch {epoch} as requested")
            return 0
    top = sorted(pool, key=rank_key)[:5]
    best = top[0]
    run.best_prompt_path.write_text(best.prompt.text() + "\n", encoding="utf-8")

    # final reporting: best candidate rescored on the full dev set, top five
    # pool members rescored with the task metric on the fixed subsample; all
    # six scorings are queued before the first is waited on
    full = submit_scoring(best.prompt, engine.dev, backend, engine.executor)
    top_scorings = [submit_scoring(c.prompt, engine.dev_eval, backend, engine.executor) for c in top]
    full_raw, _, _ = gather_scoring(full)
    gec_m2 = cfg.task == "gec" and cfg.data.format == "m2" and cfg.data.path
    records = load_m2(cfg.data.path) if gec_m2 else None
    top_report = []
    for cand, scoring in zip(top, top_scorings):
        _, _, outputs = gather_scoring(scoring)
        metric = _task_metric(cfg, records, engine.dev_eval, outputs)
        top_report.append(
            {
                "id": cand.id,
                "operator": cand.operator,
                "epoch": cand.epoch,
                "fitness": cand.fitness,
                "raw_error": cand.raw_error,
                "n_instructions": len(cand.prompt.instructions),
                "task_metric": {"name": metric[0], "value": metric[1]} if metric else None,
            }
        )
    run.write_json(
        run.path / "final_report.json",
        {
            "best_id": best.id,
            "best_fitness": best.fitness,
            "best_raw_error_subsample": best.raw_error,
            "best_raw_error_full_dev": full_raw,
            "top5": top_report,
        },
    )
    print(
        f"best candidate {best.id} (fitness {best.fitness:.4f}, raw error {best.raw_error:.4f}); "
        f"prompt written to {run.best_prompt_path}"
    )
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def cmd_infer(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    prompt = parse_prompt(Path(args.prompt).read_text(encoding="utf-8").rstrip("\n"))
    lines = _read_lines_raw(args.input)
    backend = _build_backend(args, cfg, None)
    with contextlib.closing(backend), _executor(args) as pool:
        outputs, failures = _infer_lines(prompt.render, lines, backend, pool)
    _write_lines(args.output, outputs)
    if failures:
        print(f"{failures}/{len(lines)} lines failed after retry", file=sys.stderr)
        return 1
    print(f"wrote {len(outputs)} predictions to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _write_report(path: Path, metric: str, per_sample: list, aggregate: float | None = None) -> None:
    """Write a metric report: its aggregate (the mean of ``per_sample``
    unless given), the sample count and every sample's score."""
    if aggregate is None:
        aggregate = sum(per_sample) / len(per_sample)
    report = {"metric": metric, "aggregate": aggregate, "n": len(per_sample), "per_sample": per_sample}
    write_json(path, report)
    print(f"{metric}: {aggregate:.4f} ({path})")


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score line-aligned predictions against the task's gold data, which
    the corpus loaders read and reject when empty."""
    predictions = _read_lines_raw(args.predictions)
    output = Path(args.output)
    if args.task == "simplify":
        if not args.source or not args.references:
            raise ConfigurationError("simplify evaluation needs --source and --references")
        gold = load_asset(args.source, args.references)
    elif args.task == "gec":
        if not args.m2:
            raise ConfigurationError("gec evaluation needs --m2 <gold file>")
        gold = load_m2(args.m2)
    else:
        if not args.gold:
            raise ConfigurationError("generic evaluation needs --gold <jsonl file>")
        gold = load_jsonl(args.gold)
    if len(predictions) != len(gold):
        raise ConfigurationError(f"predictions ({len(predictions)}) misaligned with gold ({len(gold)})")
    if args.task == "simplify":
        _write_report(output, "sari", [sari(p.source, o, p.references) for p, o in zip(gold, predictions)])
    elif args.task == "gec":
        score, counts = f05_with_counts(gold, predictions)
        lev = [min_ref_levenshtein(o, reference_texts(r)) for o, r in zip(predictions, gold)]
        _write_report(output.with_suffix(".levenshtein.json"), "word-levenshtein-min-ref", lev)
        _write_report(output, "f05-approx", counts, score)
    else:
        lev = [min_ref_levenshtein(o, p.references) for o, p in zip(predictions, gold)]
        _write_report(output, "word-levenshtein-min-ref", lev)
    return 0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def _zero_shot_text(args: argparse.Namespace, task: str) -> str:
    if args.prompt_file:
        return Path(args.prompt_file).read_text(encoding="utf-8").strip()
    resource = importlib.resources.files("apio") / "templates" / f"zero_shot_{task}.txt"
    return resource.read_text(encoding="utf-8").strip()


def cmd_baseline(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    template = TASK_TEMPLATES[cfg.task]
    lines = _read_lines_raw(args.input)
    meta: dict = {"kind": args.kind, "task": cfg.task, "seed": cfg.seed}

    if args.kind == "copy":
        outputs, failures = lines, 0
    else:
        text = _zero_shot_text(args, cfg.task)
        meta["prompt_text"] = text
        blocks = [text]
        if args.kind == "few_shot":
            train, _ = split_pairs(cfg)
            if len(train) < args.shots:
                raise ConfigurationError(f"train pool ({len(train)}) smaller than --shots {args.shots}")
            rng = derived_rng(cfg.seed, "few-shot")
            exemplars = [train[i] for i in sorted(rng.sample(range(len(train)), args.shots))]
            meta["shots"] = args.shots
            meta["exemplar_ids"] = [p.id for p in exemplars]
            for pair in exemplars:
                blocks.append(
                    f"{template.input_label}: {pair.source}\n{template.output_label}: {pair.references[0]}"
                )
        # zero/few-shot prompts have no instruction bullets; render directly
        prompt_text = "\n\n".join(blocks) + "\n\n" + template.footer
        backend = _build_backend(args, cfg, None)
        with contextlib.closing(backend), _executor(args) as pool:
            outputs, failures = _infer_lines(
                lambda line: prompt_text.replace(INPUT_SLOT, line), lines, backend, pool
            )
    _write_lines(args.output, outputs)
    write_json(Path(str(args.output) + ".meta.json"), meta)
    if failures:
        print(f"{failures}/{len(lines)} lines failed after retry", file=sys.stderr)
        return 1
    if args.kind == "copy":
        print(f"copied {len(lines)} lines to {args.output}")
    else:
        print(f"wrote {len(outputs)} predictions to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--task", choices=sorted(TASK_TEMPLATES), help="task template")
    sub.add_argument("--seed", type=int, help="run seed")
    sub.add_argument("--script", help="answer requests from this script file instead of the backend")
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=DEFAULT_WORKERS,
        help=f"inference requests in flight at once (default {DEFAULT_WORKERS})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apio", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    induce = commands.add_parser("induce", help="induce an initial prompt from examples")
    _add_common(induce)
    induce.add_argument("--run-id")
    induce.add_argument("--runs-dir", default="runs")
    induce.add_argument("--force", action="store_true")
    induce.add_argument("--dev-subsample")
    induce.set_defaults(func=cmd_induce)

    optimize = commands.add_parser("optimize", help="optimize an induced prompt")
    _add_common(optimize)
    optimize.add_argument("--prompt", help="prompt file (defaults to the run's induced prompt)")
    optimize.add_argument("--run-id")
    optimize.add_argument("--runs-dir", default="runs")
    optimize.add_argument("--force", action="store_true")
    optimize.add_argument("--resume", help="resume a persisted run by id")
    optimize.add_argument("--dev-subsample")
    optimize.add_argument("--stop-after-epoch", type=_positive_int, help="stop early after this epoch (testing)")
    optimize.set_defaults(func=cmd_optimize)

    infer = commands.add_parser("infer", help="run a prompt over an input file")
    _add_common(infer)
    infer.add_argument("--prompt", required=True)
    infer.add_argument("--input", required=True)
    infer.add_argument("--output", required=True)
    infer.set_defaults(func=cmd_infer)

    evaluate = commands.add_parser("evaluate", help="score predictions against gold data")
    evaluate.add_argument("--task", choices=["simplify", "gec", "generic"], required=True)
    evaluate.add_argument("--predictions", required=True)
    evaluate.add_argument("--output", required=True)
    evaluate.add_argument("--source")
    evaluate.add_argument("--references", nargs="+")
    evaluate.add_argument("--m2")
    evaluate.add_argument("--gold")
    evaluate.set_defaults(func=cmd_evaluate)

    baseline = commands.add_parser("baseline", help="copy / zero-shot / few-shot baselines")
    _add_common(baseline)
    baseline.add_argument("--kind", choices=["copy", "zero_shot", "few_shot"], required=True)
    baseline.add_argument("--input", required=True)
    baseline.add_argument("--output", required=True)
    baseline.add_argument("--shots", type=_positive_int, default=3)
    baseline.add_argument("--prompt-file", help="override the zero-shot prompt template")
    baseline.set_defaults(func=cmd_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (RunStateError, FileNotFoundError, ValueError) as exc:  # config, corpus, prompt errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GatewayError, InductionError) as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())
