"""Beam-search optimization of instruction-list prompts.

Each epoch expands every pool member through three operators - improve
(append one LLM-proposed instruction targeting observed errors), rephrase
(one variation per instruction position), permute (seeded reorder of
selected positions) - scores the children on a fixed dev subsample, and
keeps the best ``beam_b`` candidates. Fitness is the negated mean
word-level Levenshtein distance to the nearest reference minus a
normalized prompt-drift penalty against the immediate parent, so the best
member is never evicted and best-pool fitness is non-decreasing.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass

from .config import OptimizerConfig
from .corpus import SamplePair
from .gateway import Backend, ChatRequest, EXPLORE, GatewayError, INFER
from .metrics.levenshtein import min_ref_levenshtein, word_levenshtein
from .prompts import (
    Instruction,
    Prompt,
    PromptError,
    TaskTemplate,
    clean_completion,
    improve_meta_prompt,
    parse_new_instruction,
    postprocess_output,
    rephrase_meta_prompt,
)
from .seeding import derived_rng

log = logging.getLogger(__name__)

# a train window and the futures of its scoring under one parent
Window = tuple[list[SamplePair], list[Future]]


@dataclass
class Candidate:
    id: int
    prompt: Prompt
    fitness: float
    raw_error: float
    drift_penalty: float
    parent_id: int | None
    operator: str
    epoch: int

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "prompt": {
                "header": self.prompt.header,
                "instructions": self.prompt.instruction_texts(),
                "footer": self.prompt.footer,
            },
            "fitness": self.fitness,
            "raw_error": self.raw_error,
            "drift_penalty": self.drift_penalty,
            "parent_id": self.parent_id,
            "operator": self.operator,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Candidate":
        prompt = Prompt(
            header=data["prompt"]["header"],
            instructions=tuple(Instruction(t) for t in data["prompt"]["instructions"]),
            footer=data["prompt"]["footer"],
        )
        return cls(
            id=data["id"],
            prompt=prompt,
            fitness=data["fitness"],
            raw_error=data["raw_error"],
            drift_penalty=data["drift_penalty"],
            parent_id=data["parent_id"],
            operator=data["operator"],
            epoch=data["epoch"],
        )


def rank_key(candidate: Candidate) -> tuple[float, int]:
    """The pool order: higher fitness first, then the older (lower) id."""
    return -candidate.fitness, candidate.id


def submit_scoring(
    prompt: Prompt,
    pairs: Sequence[SamplePair],
    backend: Backend,
    executor: Executor,
) -> list[Future]:
    """Start scoring ``prompt`` on ``pairs`` in ``executor``: one future
    per pair, in input order, each rendering the source, completing it
    under the INFER profile, postprocessing, and taking the word distance
    to the nearest reference. An empty source scores the empty output.
    Pass the result to ``gather_scoring``.
    """

    def one(pair: SamplePair) -> tuple[str, int]:
        output = ""
        if pair.source:
            raw = backend.complete(ChatRequest(prompt.render(pair.source), INFER))
            output = postprocess_output(raw)
        return output, min_ref_levenshtein(output, pair.references)

    return [executor.submit(one, pair) for pair in pairs]


def gather_scoring(scoring: list[Future]) -> tuple[float, list[int], list[str]]:
    """Wait for a ``submit_scoring`` result and return (mean error,
    per-pair errors, outputs) in input order; the mean over no pairs is 0.

    Every request completes before the first failure in input order is
    raised, so the calls a scoring makes do not depend on scheduling and
    none is still in flight when this returns.
    """
    wait(scoring)
    scored = [future.result() for future in scoring]
    errors = [error for _, error in scored]
    return sum(errors) / max(len(errors), 1), errors, [output for output, _ in scored]


def select_dev_subsample(dev: Sequence[SamplePair], cfg: OptimizerConfig) -> list[SamplePair]:
    """Fixed seeded dev subsample, constant across a run so fitness values
    stay comparable between epochs."""
    n = cfg.dev_subsample
    if n is None or n >= len(dev):
        return list(dev)
    rng = derived_rng(cfg.seed, "dev-subsample")
    picks = sorted(rng.sample(range(len(dev)), n))
    return [dev[i] for i in picks]


class PromptOptimizer:
    """Holds the search context and runs one beam step per ``run_epoch``;
    every dev and train scoring runs in ``executor``."""

    def __init__(
        self,
        train: Sequence[SamplePair],
        dev: Sequence[SamplePair],
        cfg: OptimizerConfig,
        backend: Backend,
        template: TaskTemplate,
        executor: Executor,
    ) -> None:
        if not dev:
            raise ValueError("dev set must be non-empty")
        self.train = list(train)
        self.dev = list(dev)
        self.cfg = cfg
        self.backend = backend
        self.template = template
        self.executor = executor
        self.history: list[dict] = []
        self.next_id = 0
        self.dev_eval = select_dev_subsample(self.dev, self.cfg)

    # -- plumbing -----------------------------------------------------------

    def _take_id(self) -> int:
        out = self.next_id
        self.next_id += 1
        return out

    # -- fitness ------------------------------------------------------------

    def submit_fitness(self, prompt: Prompt) -> list[Future]:
        """Start scoring ``prompt`` on the fixed dev subsample."""
        return submit_scoring(prompt, self.dev_eval, self.backend, self.executor)

    def fitness(
        self, prompt: Prompt, parent: Prompt | None, scoring: list[Future]
    ) -> tuple[float, float, float]:
        """(fitness, raw_error, drift_penalty) on the fixed dev subsample,
        from the ``scoring`` that ``submit_fitness(prompt)`` started."""
        raw, _, _ = gather_scoring(scoring)
        if parent is None:
            drift = 0.0
        else:
            parent_text = parent.text()
            drift = word_levenshtein(prompt.text(), parent_text) / max(1, len(parent_text.split()))
        return -raw - self.cfg.drift_weight * drift, raw, drift

    # -- operators ----------------------------------------------------------

    def _submit_window(self, parent: Candidate, epoch: int) -> Window:
        """Start scoring the parent on its seeded train window, which
        depends only on (seed, epoch, parent id, parent prompt)."""
        window_size = min(len(self.train), 2 * self.cfg.improve_batch)
        rng = derived_rng(self.cfg.seed, "improve-batch", epoch, parent.id)
        pairs = [self.train[idx] for idx in rng.sample(range(len(self.train)), window_size)]
        return pairs, submit_scoring(parent.prompt, pairs, self.backend, self.executor)

    def _improve_examples(self, window: Window) -> list[tuple[str, str, str, int]]:
        """The rows of a ``_submit_window`` scoring with the worst errors.

        Returns improve_batch (input, output, gold, error) rows where gold
        is the nearest reference; rows keep window order for determinism.
        """
        pairs, scoring = window
        _, errors, outputs = gather_scoring(scoring)
        worst = sorted(range(len(pairs)), key=lambda pos: (-errors[pos], pos))
        rows = []
        for pos in sorted(worst[: self.cfg.improve_batch]):
            pair, output, error = pairs[pos], outputs[pos], errors[pos]
            gold = next(ref for ref in pair.references if word_levenshtein(output, ref) == error)
            rows.append((pair.source, output, gold, error))
        return rows

    def improve(self, parent: Candidate, epoch: int, window: Window | None = None) -> list[Prompt]:
        """Children extending the parent by one proposed instruction, shown
        the worst rows of its train ``window``, scored here unless given."""
        examples = self._improve_examples(window or self._submit_window(parent, epoch))
        meta = improve_meta_prompt(self.template, parent.prompt.instruction_texts(), examples)
        children = []
        for s in range(self.cfg.improve_samples):
            tag = epoch * self.cfg.improve_samples + s
            raw = self.backend.complete(ChatRequest(meta, EXPLORE, attempt_tag=tag))
            try:
                text = parse_new_instruction(raw)
            except PromptError as exc:
                log.warning("improve sample %d unparseable for candidate %d: %s", s, parent.id, exc)
                continue
            children.append(parent.prompt.append_instruction(text))
        if not children:
            log.warning("improve yielded zero children for candidate %d", parent.id)
        return children

    def rephrase(self, parent: Candidate, epoch: int) -> list[Prompt]:
        """Children differing from the parent at exactly one position."""
        children = []
        parent_text = parent.prompt.text()
        for i, instruction in enumerate(parent.prompt.instructions):
            raw = self.backend.complete(
                ChatRequest(rephrase_meta_prompt(instruction.text), EXPLORE, attempt_tag=epoch)
            )
            text = clean_completion(raw, collapse_newlines=True)
            if not text:
                log.warning("empty rephrase for candidate %d position %d", parent.id, i)
                continue
            child = parent.prompt.replace_instruction(i, text)
            if child.text() == parent_text:
                continue
            children.append(child)
        return children

    def permute(self, parent: Candidate, epoch: int) -> Prompt | None:
        """Child with a non-identity reorder of n_permute seeded positions."""
        k = len(parent.prompt.instructions)
        if k < 2:
            return None
        rng = derived_rng(self.cfg.seed, "permute", epoch, parent.id)
        m = min(self.cfg.n_permute, k)
        positions = sorted(rng.sample(range(k), m))
        shuffled = list(positions)
        while shuffled == positions:
            rng.shuffle(shuffled)
        order = list(range(k))
        for target, source in zip(positions, shuffled):
            order[target] = source
        return parent.prompt.reorder(order)

    # -- epoch loop ----------------------------------------------------------

    def score_seed(self, prompt: Prompt) -> Candidate:
        fit, raw, drift = self.fitness(prompt, None, self.submit_fitness(prompt))
        return Candidate(
            id=self._take_id(),
            prompt=prompt,
            fitness=fit,
            raw_error=raw,
            drift_penalty=drift,
            parent_id=None,
            operator="init",
            epoch=0,
        )

    def run_epoch(self, pool: list[Candidate], epoch: int) -> list[Candidate]:
        """One beam step. The scorings whose inputs are known at the start
        (each parent's improve window and permute child) are submitted
        first, in parent-id order; every other child starts scoring as
        soon as it is proposed, so its dev requests overlap the generation
        of later children. Children are proposed, gathered, numbered and
        admitted in proposal order, which the early submissions leave as it
        was."""
        calls_before = self.backend.n_calls
        parents = sorted(pool, key=lambda c: c.id)
        seen = {c.prompt.text() for c in pool}
        windows: dict[int, Window] = {}
        permuted: dict[int, Prompt | None] = {}
        early: dict[str, list[Future]] = {}  # dev scorings started before their child is proposed
        for parent in parents:
            windows[parent.id] = self._submit_window(parent, epoch)
            child = permuted[parent.id] = self.permute(parent, epoch)
            if child is not None and (text := child.text()) not in seen and text not in early:
                early[text] = self.submit_fitness(child)
        proposals: list[tuple[Prompt, str, Candidate, list[Future]]] = []

        def propose(prompt: Prompt, op: str, parent: Candidate) -> None:
            text = prompt.text()
            if text not in seen:
                seen.add(text)
                scoring = early.pop(text) if text in early else self.submit_fitness(prompt)
                proposals.append((prompt, op, parent, scoring))

        for parent in parents:
            operators = (
                ("improve", lambda: self.improve(parent, epoch, windows[parent.id])),
                ("rephrase", lambda: self.rephrase(parent, epoch)),
            )
            for op, generate in operators:
                try:
                    for child in generate():
                        propose(child, op, parent)
                except GatewayError as exc:
                    log.warning("%s failed for candidate %d: %s", op, parent.id, exc)
            if permuted[parent.id] is not None:
                propose(permuted[parent.id], "permute", parent)

        scored: list[Candidate] = []
        for prompt, op, parent, scoring in proposals:
            try:
                fit, raw, drift = self.fitness(prompt, parent.prompt, scoring)
            except GatewayError as exc:
                log.warning("scoring failed for %s child of %d: %s", op, parent.id, exc)
                continue
            scored.append(
                Candidate(
                    id=self._take_id(),
                    prompt=prompt,
                    fitness=fit,
                    raw_error=raw,
                    drift_penalty=drift,
                    parent_id=parent.id,
                    operator=op,
                    epoch=epoch,
                )
            )
        if not scored:
            log.warning("epoch %d produced no successful candidates; pool unchanged", epoch)
        merged = sorted(pool + scored, key=rank_key)
        new_pool = merged[: self.cfg.beam_b]
        self.history.append(
            {
                "epoch": epoch,
                "candidates": [c.to_dict() for c in scored],
                "pool": [c.id for c in new_pool],
                "best_fitness": new_pool[0].fitness,
                "best_id": new_pool[0].id,
                "backend_calls": self.backend.n_calls - calls_before,
            }
        )
        return new_pool
