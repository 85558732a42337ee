"""``apio`` command line: induce | optimize | infer | evaluate | baseline.

Exit codes: 0 success, 1 engine failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import contextlib
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
    PromptError,
    TASK_TEMPLATES,
    parse_prompt,
    postprocess_output,
)
from .seeding import derived_rng
from .state import BackendState, RunDir, RunState, temp_path, write_json, write_text

log = logging.getLogger(__name__)

FAILED_PLACEHOLDER = "<FAILED>"
# requests in flight at once unless --workers says otherwise
DEFAULT_WORKERS = 32


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _run_id(args: argparse.Namespace) -> str:
    """``--run-id``, else an id named by the time the command started."""
    return time.strftime("run-%Y%m%d-%H%M%S") if args.run_id is None else args.run_id


def _overrides(args: argparse.Namespace) -> dict:
    """The config values given as flags; ``load_config`` skips those left None."""
    sub = getattr(args, "dev_subsample", None)
    return {
        "task": getattr(args, "task", None),
        "seed": getattr(args, "seed", None),
        # a count, else "all" or a word for the config check to refuse
        "optimizer.dev_subsample": int(sub) if sub and sub.removeprefix("-").isdecimal() else sub,
    }


def _build_backend(args: argparse.Namespace, cfg: RunConfig, run: RunDir | None) -> Backend:
    if args.script:
        return ScriptedBackend.from_file(args.script)
    inner = OpenAIChatBackend(cfg.backend)
    cache_dir = cfg.backend.cache_dir or (run.cache_path if run is not None else None)
    return CachedBackend(inner, cache_dir) if cache_dir else inner


@contextlib.contextmanager
def _open_run(
    args: argparse.Namespace, cfg: RunConfig, run: RunDir | None = None, phase: str | None = None
) -> Iterator[tuple[Backend, ThreadPoolExecutor]]:
    """The session of every command that sends requests: build the
    backend, then, given a ``run``, make it and hold its lock, and yield
    the backend and the command's pool of ``--workers`` threads. A usage
    error of the backend leaves no run. A command that starts ``phase`` in
    the run refuses, under the lock, the state it finds there, unless
    ``--force`` is given or the state is induced and ``phase`` optimizes it.

    The pool sends every inference request, and every request of an
    ``optimize`` epoch: the epoch's improve and rephrase requests too. An
    epoch queues its scorings and its improve and rephrase tasks up front,
    so a command that fails or is interrupted cancels the queued requests
    instead of sending them."""
    backend = _build_backend(args, cfg, run)
    with contextlib.ExitStack() as stack:
        # undone in reverse: the pool shuts down, the backend closes, the lock goes
        if run is not None:
            stack.callback(run.release_lock)
        stack.callback(backend.close)
        if run is not None:
            run.acquire_lock()
            if phase is not None and not args.force and run.state_path.exists():
                if phase == "induction" or run.read_state().phase != "induction":
                    raise ConfigurationError(f"run {run.run_id!r} already exists at {run.path}; --force overwrites it")
        pool = ThreadPoolExecutor(max_workers=args.workers, thread_name_prefix="apio-infer")
        stack.callback(pool.shutdown, cancel_futures=True)
        yield backend, pool


def _backend_state(args: argparse.Namespace) -> BackendState:
    return BackendState("scripted", str(args.script)) if args.script else BackendState("live")


def _meta_path(output: Path) -> Path:  # baseline's record of its run
    return Path(f"{output}.meta.json")


def _levenshtein_path(output: Path) -> Path:  # the word distance of evaluate --task gec
    return output.with_suffix(".levenshtein.json")


def _output_path(args: argparse.Namespace, sidecar: Callable[[Path], Path] | None = None) -> Path:
    """``--output``, refused before any input is read or request sent when
    it is a directory or its parent is not one, or when ``sidecar(output)``,
    the file the command writes beside it, or a temp file is a directory."""
    output = Path(args.output)
    if output.is_dir():
        raise ConfigurationError(f"--output {output} is a directory")
    if not output.parent.is_dir():
        raise ConfigurationError(f"--output {output}: {output.parent} is not a directory")
    written = [output] if sidecar is None else [output, sidecar(output)]
    for path in written[1:] + [temp_path(path) for path in written]:
        if path.is_dir():
            raise ConfigurationError(f"--output {output}: {path} is a directory")
    return output


def _read_prompt(path: str | Path) -> Prompt:
    try:
        return parse_prompt(read_text(path).rstrip("\n"))
    except PromptError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _infer_file(args: argparse.Namespace, cfg: RunConfig, render: Callable[[str], str], output: Path) -> int:
    """Infer each line of ``--input``, rendered into a prompt by ``render``,
    and write the outputs to ``output`` in input order, one line each. The
    input is read first; then ``_open_run``, given no run, builds the
    backend and the ``--workers`` pool. Empty lines pass through untouched; every
    other distinct line is one request, whose answer is postprocessed to
    one line, and each copy of a line whose request fails becomes
    ``<FAILED>``, which exits 1."""
    lines = read_lines(args.input)

    def one(line: str) -> str:
        if not line.strip():
            return ""
        try:
            return postprocess_output(backend.complete(ChatRequest(render(line), INFER)))
        except GatewayError as exc:
            log.warning("inference failed: %s", exc)
            return FAILED_PLACEHOLDER

    distinct = list(dict.fromkeys(lines))
    with _open_run(args, cfg) as (backend, pool):
        answers = dict(zip(distinct, pool.map(one, distinct)))
    outputs = [answers[line] for line in lines]
    write_text(output, "".join(f"{line}\n" for line in outputs))
    if failures := outputs.count(FAILED_PLACEHOLDER):
        print(f"{failures}/{len(lines)} lines failed", file=sys.stderr)
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
    run = RunDir(args.runs_dir, _run_id(args))
    dev_eval = select_dev_subsample(dev, cfg.optimizer, cfg.seed)
    with _open_run(args, cfg, run, "induction") as (backend, pool):

        def fitness_fn(prompt: Prompt, pairs, trial: int) -> Callable[[], float]:
            scoring = submit_scoring(prompt, pairs, backend, pool, trial)
            return lambda: -gather_scoring(scoring)[0]

        prompt, trials = best_of_trials(train, dev_eval, cfg.induction, cfg.seed, template, backend, fitness_fn)
        write_text(run.prompt_path, prompt.text() + "\n")
        run.write_json(run.trials_path, {"trials": to_object(trials)})
        run.write_state(RunState(run.run_id, "induction", cfg, _backend_state(args)))
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
    """Optimize a run on one ``RunState``: the state a resume reads, and finds
    unchanged under the lock, or for a fresh run the epoch-0 state made once
    its prompt is scored. Each epoch writes the history, then its new state."""
    if args.resume is not None:
        given = [name for name in _FROM_STATE if (value := getattr(args, name)) is not None and value is not False]
        if given:
            raise ConfigurationError(
                "optimize --resume runs on the configuration, prompt and run id of its state; "
                f"drop --{given[0].replace('_', '-')}"
            )
        run = RunDir(args.runs_dir, args.resume)
        found = run.read_state()
        if found.phase == "induction":
            raise ConfigurationError(f"run {args.resume!r} is in phase 'induction', nothing to resume")
        cfg, phase = found.config, None  # a resume starts no phase: it goes on with its state
        args.script = args.script or found.backend.script
        state = replace(found, backend=_backend_state(args))  # a --script given to the resume is recorded
    else:
        found = state = None
        cfg = load_config(args.config, _overrides(args))
        run = RunDir(args.runs_dir, _run_id(args))
        prompt_file = args.prompt or (run.prompt_path if run.prompt_path.exists() else None)
        if prompt_file is None:
            raise ConfigurationError("no --prompt file given and the run has no induced prompt")
        seed_prompt, phase = _read_prompt(prompt_file), "optimization"
    train, dev = split_pairs(cfg)
    template = TASK_TEMPLATES[cfg.task]
    n_epochs = cfg.optimizer.n_epochs
    with _open_run(args, cfg, run, phase) as (backend, executor):
        if found is not None and run.read_state() != found:
            raise ConfigurationError(f"run {run.run_id!r} changed before its resume took the lock; resume it again")
        engine = PromptOptimizer(train, dev, cfg.optimizer, cfg.seed, backend, template, executor)
        if state is None:
            pool = [engine.score_seed(seed_prompt)]
            state = RunState(run.run_id, "optimization" if n_epochs else "done", cfg, _backend_state(args),
                             epoch=0, next_id=engine.next_id, pool=pool, seed_prompt=seed_prompt.text())
            run.write_history(engine.history)
            run.write_state(state)
        else:
            engine.history = run.read_history(state.epoch)
            engine.next_id = state.next_id
        for epoch in range(state.epoch + 1, n_epochs + 1):
            pool = engine.run_epoch(state.pool, epoch)
            run.write_history(engine.history)
            state = replace(state, phase="optimization" if epoch < n_epochs else "done",
                            epoch=epoch, next_id=engine.next_id, pool=pool)
            run.write_state(state)
            log.info("epoch %d/%d: best fitness %.4f", epoch, n_epochs, pool[0].fitness)
            if args.stop_after_epoch is not None and args.stop_after_epoch <= epoch < n_epochs:
                print(f"stopped after epoch {epoch} as requested")
                return 0
        _final_report(run, cfg, engine, state.pool)
    return 0


def _task_score(task: str, pairs: list[SamplePair], outputs: list[str]) -> tuple[str, float, list] | None:
    """The task metric of ``outputs`` against ``pairs``: (name, aggregate,
    per-sample scores). Simplify takes the mean of sentence-level SARI,
    not the corpus-level SARI that papers usually report; gec takes the
    corpus F0.5 with each sentence's (TP, FP, FN) when the pairs carry
    their M2 records. Any other task or data has none."""
    if task == "simplify":
        scores = [sari(p.source, o, p.references) for p, o in zip(pairs, outputs)]
        return "sari-sentence-mean", sum(scores) / len(scores), scores
    if task == "gec" and all(p.record is not None for p in pairs):
        return "f05-approx", *f05_with_counts([p.record for p in pairs], outputs)
    return None


def _final_report(run: RunDir, cfg: RunConfig, engine: PromptOptimizer, pool: list[Candidate]) -> None:
    """Write the best prompt of ``pool`` and the final report: the best
    candidate rescored on the full dev set, and the top five rescored with
    the task metric on the fixed subsample, against the gold that the
    run's split read. All six scorings are queued before the first is
    waited on, the full-dev one first: after a search the top five's
    requests repeat ones it sent, so queued first they would hold the
    pool with cache hits while the full-dev misses wait."""
    top = sorted(pool, key=rank_key)[:5]
    best = top[0]
    write_text(run.best_prompt_path, best.prompt.text() + "\n")
    full = submit_scoring(best.prompt, engine.dev, engine.backend, engine.executor, 0)
    top_scorings = [submit_scoring(c.prompt, engine.dev_eval, engine.backend, engine.executor, 0)
                    for c in top]
    top_report = []
    for cand, scoring in zip(top, top_scorings):
        _, scored = gather_scoring(scoring)
        score = _task_score(cfg.task, engine.dev_eval, [output for output, _, _ in scored])
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
    full_raw, _ = gather_scoring(full)
    run.write_json(
        run.final_report_path,
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
        lev = [min_ref_levenshtein(o, p.references)[0] for o, p in zip(predictions, gold)]
        path = output if score is None else _levenshtein_path(output)
        reports.insert(0, (path, "word-levenshtein-min-ref", sum(lev) / len(lev), lev))
    for path, metric, aggregate, per_sample in reports:
        write_json(path, {"metric": metric, "aggregate": aggregate, "n": len(per_sample), "per_sample": per_sample})
        print(f"{metric}: {aggregate:.4f} ({path})")
    return 0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


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
        instruction = read_text(args.prompt_file).strip() if args.prompt_file else template.zero_shot
        meta["prompt_text"] = instruction
        exemplars = []
        if args.kind == "few_shot":
            train, _ = split_pairs(cfg)
            if len(train) < args.shots:
                raise ConfigurationError(f"train pool ({len(train)}) smaller than --shots {args.shots}")
            rng = derived_rng(cfg.seed, "few-shot")
            exemplars = [train[i] for i in sorted(rng.sample(range(len(train)), args.shots))]
            meta["shots"] = args.shots
            meta["exemplar_ids"] = [p.id for p in exemplars]
        shots = [(p.source, p.references[0]) for p in exemplars]
        # the footer comes last, so its slot is the last one, the only one a line fills
        head, _, tail = template.baseline_prompt(instruction, shots).rpartition(INPUT_SLOT)
        code = _infer_file(args, cfg, lambda line: head + line + tail, output)
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
        help=f"requests in flight at once: caps every inference request, and every request "
        f"an optimize epoch sends (default {DEFAULT_WORKERS})",
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
    baseline.add_argument("--prompt-file", help="instruction to send in place of the task's zero-shot one")
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


if __name__ == "__main__":
    entrypoint()
