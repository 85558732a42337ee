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


def best_of_trials(
    train: Sequence[SamplePair],
    dev: Sequence[SamplePair],
    cfg: InductionConfig,
    seed: int,
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
    and skipped. A trial's report holds the pairs drawn from its seed before
    its first request, and each instruction as it is induced, so a trial
    that fails to induce failed on ``pair_ids[len(instructions)]``. A
    trial's ``backend_calls`` counts its requests.
    """
    started: list[tuple[TrialReport, Prompt | None, Callable[[], float] | None]] = []
    for trial in range(cfg.n_trials):
        trial_seed = derive_seed(seed, "induce", trial)
        pairs = [train[i] for i in random.Random(trial_seed).sample(range(len(train)), cfg.n_instructions)]
        report = TrialReport(trial, trial_seed, [pair.id for pair in pairs])
        prompt, gather = None, None
        try:
            for k, pair in enumerate(pairs):
                # tags stay two apart, as when each instruction had a resample, so caches written then still hit
                attempt_tag = (trial * cfg.n_instructions + k) * 2
                report.instructions.append(induce_instruction(pair, template, backend, attempt_tag, trial))
            prompt = Prompt(header="", instructions=tuple(report.instructions), footer=template.footer)
            gather = fitness_fn(prompt, dev, trial)
        except (GatewayError, PromptError) as exc:
            log.warning("trial %d failed: %s", trial, exc)
            report.error = str(exc)
        started.append((report, prompt, gather))
    best: tuple[float, Prompt] | None = None
    for report, prompt, gather in started:
        if gather is not None:
            try:
                report.fitness = gather()
            except GatewayError as exc:
                log.warning("trial %d failed: %s", report.trial, exc)
                report.error = str(exc)
        report.backend_calls = backend.calls["induce", report.trial] + backend.calls["score", report.trial]
        if report.fitness is not None and (best is None or report.fitness > best[0]):
            best = (report.fitness, prompt)
    if best is None:
        raise GatewayError("all induction trials failed")
    return best[1], [report for report, *_ in started]
