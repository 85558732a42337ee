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
from dataclasses import dataclass, field

from .config import InductionConfig
from .corpus import SamplePair
from .gateway import Backend, ChatRequest, EXPLORE, GatewayError
from .prompts import Instruction, Prompt, PromptError, TaskTemplate, clean_completion, induction_meta_prompt
from .seeding import derive_seed

log = logging.getLogger(__name__)


@dataclass
class TrialReport:
    trial: int
    seed: int
    pair_ids: list[str] = field(default_factory=list)
    instructions: list[str] = field(default_factory=list)
    fitness: float | None = None
    backend_calls: int = 0
    error: str | None = None
    dev_evaluations: int = 0


def induce_instruction(
    pair: SamplePair,
    template: TaskTemplate,
    backend: Backend,
    attempt_tag: int = 0,
    trial: int = 0,
) -> Instruction:
    """Derive one instruction from a single example pair in one request of ``trial``.

    The first reference is shown as the example output. An answer with
    nothing left after ``clean_completion`` raises its ``PromptError``.
    """
    meta = induction_meta_prompt(template, pair.source, pair.references[0])
    raw = backend.complete(ChatRequest(meta, EXPLORE, attempt_tag, purpose="induce", step=trial))
    return Instruction(clean_completion(raw))


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
        # tags stay two apart, as when each instruction had a resample, so caches written then still hit
        attempt_tag = (trial_index * cfg.n_instructions + k) * 2
        instructions.append(induce_instruction(train[idx], template, backend, attempt_tag, trial_index))
    prompt = Prompt(header="", instructions=tuple(instructions), footer=template.footer)
    return prompt, [train[i].id for i in picks]


def best_of_trials(
    train: Sequence[SamplePair],
    dev: Sequence[SamplePair],
    cfg: InductionConfig,
    template: TaskTemplate,
    backend: Backend,
    fitness_fn: Callable[[Prompt, Sequence[SamplePair], int], Callable[[], float]],
) -> tuple[Prompt, list[TrialReport]]:
    """Run ``n_trials`` inductions and keep the dev-fitness argmax.

    ``fitness_fn(prompt, dev, trial)`` starts scoring ``prompt`` on ``dev``
    in requests of ``trial`` and returns a function that waits for the
    fitness. Every trial is induced and its scoring started before the
    first fitness is gathered, in trial order. Ties break to the lowest
    trial index; trials that fail to induce (a failed request, or an
    answer with nothing left after cleanup) or to be scored are recorded
    and skipped. A trial's ``backend_calls`` counts its requests.
    """
    started: list[tuple[TrialReport, Prompt | None, Callable[[], float] | None]] = []
    for trial in range(cfg.n_trials):
        report = TrialReport(trial, trial_seed(cfg.seed, trial))
        prompt, gather = None, None
        try:
            prompt, report.pair_ids = induce_prompt(train, cfg, template, backend, trial_index=trial)
            report.instructions = prompt.instruction_texts()
            gather = fitness_fn(prompt, dev, trial)
        except (GatewayError, PromptError) as exc:
            log.warning("trial %d failed: %s", trial, exc)
            report.error = str(exc)
        started.append((report, prompt, gather))
    best: tuple[float, Prompt] | None = None
    for report, prompt, gather in started:
        if gather is not None:
            try:
                report.fitness, report.dev_evaluations = gather(), 1
            except GatewayError as exc:
                log.warning("trial %d failed: %s", report.trial, exc)
                report.error = str(exc)
        report.backend_calls = backend.calls["induce", report.trial] + backend.calls["score", report.trial]
        if report.fitness is not None and (best is None or report.fitness > best[0]):
            best = (report.fitness, prompt)
    if best is None:
        raise GatewayError("all induction trials failed")
    return best[1], [report for report, *_ in started]
