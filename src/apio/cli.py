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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from .config import ConfigurationError, RunConfig, load_config, split_pairs, to_object
from .corpus import SamplePair, load_asset, load_jsonl, load_m2, m2_pairs, read_lines, read_text
from .gateway import (
    Backend,
    CachedBackend,
    ChatRequest,
    CredentialError,
    GatewayError,
    INFER,
    OpenAIChatBackend,
    ScriptedBackend,
)
from .induction import best_of_trials
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
from .state import BackendState, RunDir, RunState, write_json, write_text

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
            raise ConfigurationError(f"run {run.run_id!r} already exists at {run.path}; --force overwrites it")
        run.acquire_lock()
        yield backend, stack.enter_context(_executor(args))


def _backend_state(args: argparse.Namespace, backend: Backend) -> BackendState:
    if isinstance(backend, ScriptedBackend):
        return BackendState("scripted", str(args.script), backend.consumed_state())
    return BackendState("live")


def _meta_path(output: Path) -> Path:  # baseline's record of its run
    return Path(f"{output}.meta.json")


def _levenshtein_path(output: Path) -> Path:  # the word distance of evaluate --task gec
    return output.with_suffix(".levenshtein.json")


def _output_path(args: argparse.Namespace, sidecar: Callable[[Path], Path] | None = None) -> Path:
    """``--output``, refused before any input is read or request sent when
    it is a directory or its parent is not one, or when the file the
    command writes beside it, ``sidecar(output)``, is a directory."""
    output = Path(args.output)
    if output.is_dir():
        raise ConfigurationError(f"--output {output} is a directory")
    if not output.parent.is_dir():
        raise ConfigurationError(f"--output {output}: {output.parent} is not a directory")
    if sidecar is not None and sidecar(output).is_dir():
        raise ConfigurationError(f"--output {output}: {sidecar(output)} is a directory")
    return output


def _read_prompt(path: str | Path) -> Prompt:
    return parse_prompt(read_text(path).rstrip("\n"))


def _infer_file(args: argparse.Namespace, cfg: RunConfig, render: Callable[[str], str], output: Path) -> int:
    """Infer each line of ``--input``, rendered into a prompt by ``render``,
    on the ``--workers`` pool, and write the outputs to ``output`` in
    input order. Empty lines pass through untouched; a line is retried
    once and one that still fails becomes ``<FAILED>``, which exits 1."""
    lines = read_lines(args.input)
    backend = _build_backend(args, cfg, None)

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

    with contextlib.closing(backend), _executor(args) as pool:
        outputs = list(pool.map(one, lines))
    write_text(output, "".join(f"{line}\n" for line in outputs))
    if failures := outputs.count(FAILED_PLACEHOLDER):
        print(f"{failures}/{len(lines)} lines failed after retry", file=sys.stderr)
        return 1
    print(f"wrote {len(outputs)} predictions to {output}")
    return 0


# ---------------------------------------------------------------------------
# induce
# ---------------------------------------------------------------------------


def cmd_induce(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, _overrides(args))
    if cfg.data.train_size < cfg.induction.n_instructions:
        raise ConfigurationError(
            f"data.train_size {cfg.data.train_size} is smaller than induction.n_instructions "
            f"{cfg.induction.n_instructions}: each instruction is induced from its own train pair"
        )
    template = TASK_TEMPLATES[cfg.task]
    train, dev = split_pairs(cfg)
    run = RunDir(args.runs_dir, args.run_id or _default_run_id())
    dev_eval = select_dev_subsample(dev, cfg.optimizer)
    with _open_run(args, cfg, run, args.force) as (backend, pool):

        def fitness_fn(prompt: Prompt, pairs, via: Backend) -> Callable[[], float]:
            scoring = submit_scoring(prompt, pairs, via, pool)
            return lambda: -gather_scoring(scoring)[0]

        prompt, trials = best_of_trials(train, dev_eval, cfg.induction, template, backend, fitness_fn)
        write_text(run.prompt_path, prompt.text() + "\n")
        run.write_json(run.trials_path, {"trials": to_object(trials)})
        run.write_state(RunState(run.run_id, "induction", cfg, _backend_state(args, backend)))
    best_fitness = max(t.fitness for t in trials if t.fitness is not None)
    print(f"induced prompt written to {run.prompt_path} (dev fitness {best_fitness:.4f})")
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


# the flags --resume refuses: the run goes on with the configuration, seed
# prompt and run id of its state, and overwrites nothing
_FROM_STATE = ("config", "task", "seed", "dev_subsample", "prompt", "run_id", "force")


def cmd_optimize(args: argparse.Namespace) -> int:
    """Optimize a run on one ``RunState``: the state a resume reads, or
    for a fresh run the epoch-0 state made once its prompt is scored.
    Each epoch writes the history, then that state at the new epoch."""
    if args.resume:
        given = [name for name in _FROM_STATE if (value := getattr(args, name)) is not None and value is not False]
        if given:
            raise ConfigurationError(
                "optimize --resume runs on the configuration, prompt and run id of its state; "
                f"drop --{given[0].replace('_', '-')}"
            )
        run = RunDir(args.runs_dir, args.resume)
        state = run.read_state()
        if state.phase == "induction":
            raise ConfigurationError(f"run {args.resume!r} is in phase 'induction', nothing to resume")
        cfg, overwrite = state.config, True  # a resumed run rewrites its own state
        args.script = args.script or state.backend.script
    else:
        state = None
        cfg = load_config(args.config, _overrides(args))
        run = RunDir(args.runs_dir, args.run_id or _default_run_id())
        prompt_file = args.prompt or (run.prompt_path if run.prompt_path.exists() else None)
        if prompt_file is None:
            raise ConfigurationError("no --prompt file given and the run has no induced prompt")
        seed_prompt = _read_prompt(prompt_file)
        # continuing an induction run in place is fine; clobbering a prior
        # optimization needs --force (or --resume to continue it)
        overwrite = args.force or not run.state_path.exists() or run.read_state().phase == "induction"
    train, dev = split_pairs(cfg)
    template = TASK_TEMPLATES[cfg.task]
    n_epochs = cfg.optimizer.n_epochs
    with _open_run(args, cfg, run, overwrite) as (backend, executor):
        engine = PromptOptimizer(train, dev, cfg.optimizer, backend, template, executor)
        if state is None:
            pool = [engine.score_seed(seed_prompt)]
            state = RunState(run.run_id, "optimization" if n_epochs else "done", cfg, _backend_state(args, backend),
                             epoch=0, next_id=engine.next_id, pool=pool, seed_prompt=seed_prompt.text())
            run.write_history(engine.history)
            run.write_state(state)
        else:
            if state.backend.consumed is not None:
                backend.restore_consumed(state.backend.consumed)
            engine.history = run.read_history(state.epoch)
            engine.next_id = state.next_id
        for epoch in range(state.epoch + 1, n_epochs + 1):
            pool = engine.run_epoch(state.pool, epoch)
            run.write_history(engine.history)
            state = replace(state, phase="optimization" if epoch < n_epochs else "done",
                            backend=_backend_state(args, backend), epoch=epoch, next_id=engine.next_id, pool=pool)
            run.write_state(state)
            log.info("epoch %d/%d: best fitness %.4f", epoch, n_epochs, pool[0].fitness)
            if args.stop_after_epoch is not None and args.stop_after_epoch <= epoch < n_epochs:
                print(f"stopped after epoch {epoch} as requested")
                return 0
        _final_report(run, cfg, engine, state.pool)
    return 0


def _task_score(task: str, pairs: list[SamplePair], outputs: list[str]) -> tuple[str, float, list] | None:
    """The task metric of ``outputs`` against ``pairs``: (name, aggregate,
    per-sample scores). Simplify takes the mean SARI; gec takes the corpus
    F0.5 with each sentence's (TP, FP, FN) when the pairs carry their M2
    records. Any other task or data has none."""
    if task == "simplify":
        scores = [sari(p.source, o, p.references) for p, o in zip(pairs, outputs)]
        return "sari", sum(scores) / len(scores), scores
    if task == "gec" and all(p.record is not None for p in pairs):
        return "f05-approx", *f05_with_counts([p.record for p in pairs], outputs)
    return None


def _final_report(run: RunDir, cfg: RunConfig, engine: PromptOptimizer, pool: list[Candidate]) -> None:
    """Write the best prompt of ``pool`` and the final report: the best
    candidate rescored on the full dev set, and the top five rescored with
    the task metric on the fixed subsample, against the gold that the
    run's split read. All six scorings are queued before the first is
    waited on, the full-dev one last, so each of the top five's task
    metric is computed while the scorings queued after it are still in
    flight."""
    top = sorted(pool, key=rank_key)[:5]
    best = top[0]
    write_text(run.best_prompt_path, best.prompt.text() + "\n")
    top_scorings = [submit_scoring(c.prompt, engine.dev_eval, engine.backend, engine.executor) for c in top]
    full = submit_scoring(best.prompt, engine.dev, engine.backend, engine.executor)
    top_report = []
    for cand, scoring in zip(top, top_scorings):
        _, _, outputs = gather_scoring(scoring)
        score = _task_score(cfg.task, engine.dev_eval, outputs)
        top_report.append(
            {
                "id": cand.id,
                "operator": cand.operator,
                "epoch": cand.epoch,
                "fitness": cand.fitness,
                "raw_error": cand.raw_error,
                "n_instructions": len(cand.prompt.instructions),
                "task_metric": None if score is None else {"name": score[0], "value": score[1]},
            }
        )
    full_raw, _, _ = gather_scoring(full)
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


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------


def cmd_infer(args: argparse.Namespace) -> int:
    output = _output_path(args)
    cfg = load_config(args.config, _overrides(args))
    return _infer_file(args, cfg, _read_prompt(args.prompt).render, output)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Score line-aligned predictions against the task's gold data, which
    the corpus loaders read and reject when empty. Each report, written
    once all are computed, holds the aggregate and every sample's score."""
    output = _output_path(args, _levenshtein_path if args.task == "gec" else None)
    predictions = read_lines(args.predictions)
    if args.task == "simplify":
        if not args.source or not args.references:
            raise ConfigurationError("simplify evaluation needs --source and --references")
        gold = load_asset(args.source, args.references)
    elif args.task == "gec":
        if not args.m2:
            raise ConfigurationError("gec evaluation needs --m2 <gold file>")
        gold = m2_pairs(load_m2(args.m2))
    else:
        if not args.gold:
            raise ConfigurationError("generic evaluation needs --gold <jsonl file>")
        gold = load_jsonl(args.gold)
    if len(predictions) != len(gold):
        raise ConfigurationError(f"predictions ({len(predictions)}) misaligned with gold ({len(gold)})")
    score = _task_score(args.task, gold, predictions)
    reports = [] if score is None else [(output, *score)]
    if args.task != "simplify":  # the word distance, beside the F0.5 for gec
        lev = [min_ref_levenshtein(o, p.references) for o, p in zip(predictions, gold)]
        path = output if score is None else _levenshtein_path(output)
        reports.insert(0, (path, "word-levenshtein-min-ref", sum(lev) / len(lev), lev))
    for path, metric, aggregate, per_sample in reports:
        write_json(path, {"metric": metric, "aggregate": aggregate, "n": len(per_sample), "per_sample": per_sample})
        print(f"{metric}: {aggregate:.4f} ({path})")
    return 0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def _zero_shot_text(args: argparse.Namespace, task: str) -> str:
    if args.prompt_file:
        return read_text(args.prompt_file).strip()
    resource = importlib.resources.files("apio") / "templates" / f"zero_shot_{task}.txt"
    return resource.read_text(encoding="utf-8").strip()


def cmd_baseline(args: argparse.Namespace) -> int:
    output = _output_path(args, _meta_path)
    cfg = load_config(args.config, _overrides(args))
    template = TASK_TEMPLATES[cfg.task]
    meta: dict = {"kind": args.kind, "task": cfg.task, "seed": cfg.seed}
    if args.kind == "copy":
        lines = read_lines(args.input)
        write_text(output, "".join(f"{line}\n" for line in lines))
        print(f"copied {len(lines)} lines to {output}")
        code = 0
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
        code = _infer_file(args, cfg, lambda line: prompt_text.replace(INPUT_SLOT, line), output)
    write_json(_meta_path(output), meta)
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser, task: bool = True) -> None:
    """The flags of the commands that send requests; ``task=False`` drops ``--task`` and ``--seed``."""
    sub.add_argument("--config", help="JSON config file")
    if task:
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
    _add_common(infer, task=False)
    infer.add_argument("--prompt", required=True)
    infer.add_argument("--input", required=True)
    infer.add_argument("--output", required=True)
    infer.set_defaults(func=cmd_infer)

    evaluate = commands.add_parser("evaluate", help="score predictions against gold data")
    evaluate.add_argument("--task", choices=sorted(TASK_TEMPLATES), required=True)
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
    except (OSError, ValueError) as exc:  # a ConfigurationError or PromptError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CredentialError, GatewayError) as exc:
        print(f"engine failure: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())
