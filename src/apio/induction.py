"""Initial prompt induction from input-output example pairs.

One instruction is induced per sampled training pair, assembled into a
prompt with the task footer and an empty header. Several independent
trials run with derived seeds and the prompt scoring best on the dev set
wins (ties to the lowest trial index).
"""

from __future__ import annotations

import logging
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from .config import InductionConfig
from .corpus import SamplePair
from .gateway import Backend, ChatRequest, EXPLORE, GatewayError
from .prompts import Instruction, Prompt, TaskTemplate, clean_completion, induction_meta_prompt
from .seeding import derive_seed

log = logging.getLogger(__name__)


@dataclass
class TrialReport:
    trial: int
    seed: int
    pair_ids: list[str]
    instructions: list[str]
    fitness: float | None
    backend_calls: int
    error: str | None = None
    dev_evaluations: int = 0


def induce_instruction(
    pair: SamplePair,
    template: TaskTemplate,
    backend: Backend,
    attempt_base: int = 0,
) -> Instruction:
    """Derive one instruction from a single example pair.

    The first reference is shown as the example output. A completion that
    is empty or still multi-line after cleanup is retried once, then the
    trial aborts with a ``GatewayError``: the backend's answer is unusable.
    """
    meta = induction_meta_prompt(template, pair.source, pair.references[0])
    last = ""
    for retry in (0, 1):
        raw = backend.complete(ChatRequest(meta, EXPLORE, attempt_tag=attempt_base + retry))
        last = clean_completion(raw)
        if last and "\n" not in last:
            return Instruction(last)
        log.warning("unusable induction completion for pair %s (retry %d)", pair.id, retry)
    raise GatewayError(
        f"pair {pair.id}: completion unusable after retry (got {last[:80]!r})"
    )


def trial_seed(seed: int, trial_index: int) -> int:
    """Seed from which induction trial ``trial_index`` samples its pairs."""
    return derive_seed(seed, "induce", trial_index)


def induce_prompt(
    train: Sequence[SamplePair],
    cfg: InductionConfig,
    template: TaskTemplate,
    backend: Backend,
    trial_index: int = 0,
) -> tuple[Prompt, list[str]]:
    """Induce a full prompt from seeded-sampled training pairs.

    Returns the prompt and the ids of the pairs used. Pairs are resampled
    per trial from a derived seed.
    """
    rng = random.Random(trial_seed(cfg.seed, trial_index))
    picks = rng.sample(range(len(train)), cfg.n_instructions)
    instructions = []
    for k, idx in enumerate(picks):
        attempt_base = (trial_index * cfg.n_instructions + k) * 2
        instructions.append(induce_instruction(train[idx], template, backend, attempt_base))
    prompt = Prompt(header="", instructions=tuple(instructions), footer=template.footer)
    return prompt, [train[i].id for i in picks]


class _TrialRequests(Backend):
    """``inner`` seen through a request count of its own, so that a trial
    counts its requests while other trials' scorings are in flight."""

    def __init__(self, inner: Backend) -> None:
        super().__init__()
        self.inner = inner

    def _complete(self, request: ChatRequest) -> str:
        return self.inner.complete(request)


def best_of_trials(
    train: Sequence[SamplePair],
    dev: Sequence[SamplePair],
    cfg: InductionConfig,
    template: TaskTemplate,
    backend: Backend,
    fitness_fn: Callable[[Prompt, Sequence[SamplePair], Backend], Callable[[], float]],
) -> tuple[Prompt, list[TrialReport]]:
    """Run ``n_trials`` inductions and keep the dev-fitness argmax.

    ``fitness_fn(prompt, dev, via)`` starts scoring ``prompt`` on ``dev``
    with requests sent through ``via`` and returns a function that waits
    for the fitness. Every trial is induced and its scoring started before
    the first fitness is gathered, in trial order. Ties break to the lowest
    trial index; trials that fail to induce or to be scored are recorded
    and skipped. A trial's ``backend_calls`` counts the requests it sent.
    """
    started: list[tuple[TrialReport, Prompt | None, _TrialRequests, Callable[[], float] | None]] = []
    for trial in range(cfg.n_trials):
        report = TrialReport(
            trial=trial, seed=trial_seed(cfg.seed, trial), pair_ids=[], instructions=[],
            fitness=None, backend_calls=0,
        )
        via = _TrialRequests(backend)
        prompt, gather = None, None
        try:
            prompt, report.pair_ids = induce_prompt(train, cfg, template, via, trial_index=trial)
            report.instructions = prompt.instruction_texts()
            gather = fitness_fn(prompt, dev, via)
        except GatewayError as exc:
            log.warning("trial %d failed: %s", trial, exc)
            report.error = str(exc)
        started.append((report, prompt, via, gather))
    best: tuple[float, Prompt] | None = None
    for report, prompt, via, gather in started:
        if gather is not None:
            try:
                report.fitness, report.dev_evaluations = gather(), 1
            except GatewayError as exc:
                log.warning("trial %d failed: %s", report.trial, exc)
                report.error = str(exc)
        report.backend_calls = via.n_calls
        if report.fitness is not None and (best is None or report.fitness > best[0]):
            best = (report.fitness, prompt)
    if best is None:
        raise GatewayError("all induction trials failed")
    return best[1], [report for report, *_ in started]
