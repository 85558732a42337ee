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

import logging
import threading
from collections.abc import Callable, Sequence
from concurrent.futures import Executor, Future, wait
from dataclasses import dataclass

from .config import OptimizerConfig, to_object
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


def rank_key(candidate: Candidate) -> tuple[float, int]:
    """The pool order: higher fitness first, then the older (lower) id."""
    return -candidate.fitness, candidate.id


def submit_scoring(
    prompt: Prompt,
    pairs: Sequence[SamplePair],
    backend: Backend,
    executor: Executor,
    step: int,
) -> list[Future]:
    """Start scoring ``prompt`` on ``pairs`` in ``executor``: one future
    per pair, in input order, each rendering the source, completing it
    in an INFER "score" request of ``step``, postprocessing, and
    holding (output, nearest reference, word distance to it). An empty
    source scores the empty output. Pass the result to ``gather_scoring``.
    """

    def one(pair: SamplePair) -> tuple[str, str, int]:
        output = ""
        if pair.source:
            raw = backend.complete(ChatRequest(prompt.render(pair.source), INFER, purpose="score", step=step))
            output = postprocess_output(raw)
        error, nearest = min_ref_levenshtein(output, pair.references)
        return output, pair.references[nearest], error

    return [executor.submit(one, pair) for pair in pairs]


def gather_scoring(scoring: list[Future]) -> tuple[float, list[tuple[str, str, int]]]:
    """Wait for a ``submit_scoring`` result and return (mean error, its
    per-pair tuples) in input order; the mean over no pairs is 0.

    Every request completes before the first failure in input order is
    raised, so the calls a scoring makes do not depend on scheduling and
    none is still in flight when this returns.
    """
    wait(scoring)
    scored = [future.result() for future in scoring]
    return sum(error for _, _, error in scored) / max(len(scored), 1), scored


def select_dev_subsample(dev: Sequence[SamplePair], cfg: OptimizerConfig, seed: int) -> list[SamplePair]:
    """Fixed dev subsample drawn from the run ``seed``, constant across a
    run so fitness values stay comparable between epochs."""
    n = cfg.dev_subsample
    if n is None or n >= len(dev):
        return list(dev)
    rng = derived_rng(seed, "dev-subsample")
    picks = sorted(rng.sample(range(len(dev)), n))
    return [dev[i] for i in picks]


class PromptOptimizer:
    """Holds the search context and runs one beam step per ``run_epoch``,
    which starts every request of the epoch in ``executor``. ``improve``
    and ``rephrase`` only collect the children of the requests it started.
    ``score_seed`` and ``run_epoch`` make every ``Candidate`` through
    ``_candidate``, which numbers them from ``next_id``."""

    def __init__(
        self,
        train: Sequence[SamplePair],
        dev: Sequence[SamplePair],
        cfg: OptimizerConfig,
        seed: int,
        backend: Backend,
        template: TaskTemplate,
        executor: Executor,
    ) -> None:
        if not dev:
            raise ValueError("dev set must be non-empty")
        self.train = list(train)
        self.dev = list(dev)
        self.cfg = cfg
        self.seed = seed
        self.backend = backend
        self.template = template
        self.executor = executor
        self.history: list[dict] = []
        self.next_id = 0
        self.dev_eval = select_dev_subsample(self.dev, self.cfg, seed)

    # -- fitness ------------------------------------------------------------

    def submit_fitness(self, prompt: Prompt, epoch: int) -> list[Future]:
        """Start scoring ``prompt`` on the fixed dev subsample, as requests of ``epoch``."""
        return submit_scoring(prompt, self.dev_eval, self.backend, self.executor, epoch)

    def fitness(
        self, prompt: Prompt, parent: Prompt | None, scoring: list[Future]
    ) -> tuple[float, float, float]:
        """(fitness, raw_error, drift_penalty) on the fixed dev subsample,
        from the ``scoring`` that ``submit_fitness(prompt)`` started."""
        raw, _ = gather_scoring(scoring)
        if parent is None:
            drift = 0.0
        else:
            parent_text = parent.text()
            drift = word_levenshtein(prompt.text(), parent_text) / max(1, len(parent_text.split()))
        return -raw - self.cfg.drift_weight * drift, raw, drift

    # -- operators ----------------------------------------------------------

    def _submit_improvements(self, parent: Candidate, epoch: int, start: Callable[[Prompt], None]) -> Future:
        """Start the parent's improve samples in ``executor``: first the
        scoring of its seeded train window, which depends only on (seed,
        epoch, parent id, parent prompt), then the task that reads it. The
        task is queued behind every request it waits on, so no pool thread
        waits on a request queued behind it. Its future holds the children
        that the samples' proposed instructions make, each passed to
        ``start`` once known; a sample whose request fails or whose answer
        makes no instruction is logged and dropped, and a window that failed
        to score raises. The meta prompt shows the improve_batch rows of the
        window with the worst errors, as (input, output, nearest reference,
        error) in window order. The samples share one request body, so they
        go out one at a time in tag order."""
        window_size = min(len(self.train), 2 * self.cfg.improve_batch)
        rng = derived_rng(self.seed, "improve-batch", epoch, parent.id)
        pairs = [self.train[idx] for idx in rng.sample(range(len(self.train)), window_size)]
        scoring = submit_scoring(parent.prompt, pairs, self.backend, self.executor, epoch)

        def sample() -> list[Prompt]:
            _, scored = gather_scoring(scoring)
            worst = sorted(range(len(pairs)), key=lambda pos: (-scored[pos][2], pos))
            examples = [(pairs[pos].source, *scored[pos]) for pos in sorted(worst[: self.cfg.improve_batch])]
            meta = improve_meta_prompt(self.template, parent.prompt.instructions, examples)
            children = []
            for s in range(self.cfg.improve_samples):
                tag = epoch * self.cfg.improve_samples + s
                request = ChatRequest(meta, EXPLORE, attempt_tag=tag, purpose="improve", step=epoch)
                try:
                    child = parent.prompt.append_instruction(parse_new_instruction(self.backend.complete(request)))
                except (GatewayError, PromptError) as exc:
                    log.warning("improve sample %d failed for candidate %d: %s", s, parent.id, exc)
                    continue
                start(child)
                children.append(child)
            return children

        return self.executor.submit(sample)

    def improve(self, parent: Candidate, samples: Future) -> list[Prompt]:
        """Children extending the parent by one proposed instruction, read
        from the ``samples`` task that ``run_epoch`` started with
        ``_submit_improvements``; it sends no request of its own."""
        try:
            children = samples.result()
        except GatewayError as exc:
            log.warning("improve failed for candidate %d: %s", parent.id, exc)
            return []
        if not children:
            log.warning("improve yielded zero children for candidate %d", parent.id)
        return children

    def _submit_rephrasings(
        self, parents: Sequence[Candidate], epoch: int, start: Callable[[Prompt], None]
    ) -> dict[Instruction, Future]:
        """Start one rephrase request in ``executor`` per distinct
        instruction of ``parents``, in order of first appearance. Each
        future holds the children its answer makes by (parent id, position),
        each passed to ``start``. A child equal to its parent is kept, since
        ``run_epoch`` alone drops a repeated child text."""
        holders: dict[Instruction, list[tuple[Candidate, int]]] = {}
        for parent in parents:
            for i, instruction in enumerate(parent.prompt.instructions):
                holders.setdefault(instruction, []).append((parent, i))

        def one(instruction: Instruction) -> dict[tuple[int, int], Prompt]:
            request = ChatRequest(rephrase_meta_prompt(instruction), EXPLORE, attempt_tag=epoch, purpose="rephrase",
                                  step=epoch)
            text = Instruction(clean_completion(self.backend.complete(request)))
            children = {(p.id, i): p.prompt.replace_instruction(i, text) for p, i in holders[instruction]}
            for child in children.values():
                start(child)
            return children

        return {instruction: self.executor.submit(one, instruction) for instruction in holders}

    def rephrase(self, parent: Candidate, rephrasings: dict[Instruction, Future]) -> list[Prompt]:
        """The parent's children, in position order, collected from the
        ``rephrasings`` that ``run_epoch`` started with ``_submit_rephrasings``;
        it sends no request and drops no repeated text. A failed request or
        empty answer drops only its own child."""
        children = []
        for i, instruction in enumerate(parent.prompt.instructions):
            try:
                children.append(rephrasings[instruction].result()[parent.id, i])
            except (GatewayError, PromptError) as exc:
                log.warning("rephrase failed for candidate %d position %d: %s", parent.id, i, exc)
        return children

    def permute(self, parent: Candidate, epoch: int) -> Prompt | None:
        """Child with a non-identity reorder of n_permute seeded positions."""
        k = len(parent.prompt.instructions)
        if k < 2:
            return None
        rng = derived_rng(self.seed, "permute", epoch, parent.id)
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

    def _candidate(
        self, prompt: Prompt, parent: Candidate | None, operator: str, epoch: int, scoring: list[Future]
    ) -> Candidate:
        """The candidate of ``prompt`` scored by ``fitness`` from ``scoring``,
        numbered with the next id only once its scoring succeeds, so a
        child whose scoring fails uses up no id."""
        parent_prompt, parent_id = (None, None) if parent is None else (parent.prompt, parent.id)
        fit, raw, drift = self.fitness(prompt, parent_prompt, scoring)
        self.next_id += 1
        return Candidate(self.next_id - 1, prompt, fit, raw, drift, parent_id, operator, epoch)

    def score_seed(self, prompt: Prompt) -> Candidate:
        """The seed prompt as the epoch-0 candidate, of operator ``init``,
        scored on the fixed dev subsample with no drift penalty."""
        return self._candidate(prompt, None, "init", 0, self.submit_fitness(prompt, 0))

    def run_epoch(self, pool: list[Candidate], epoch: int) -> list[Candidate]:
        """One beam step, whose requests all go out on ``executor``. In
        one pass over the parents in id order, it queues each parent's
        improve window and improve task (``_submit_improvements``), then
        its permute child's scoring. Then it starts one rephrase request
        per distinct instruction among the parents. Each child's dev
        scoring is queued where the child is made, once per text. Children
        are proposed, gathered, numbered and admitted in proposal order,
        parent by parent, which none of this changes; the proposals table
        keeps each new child text's first proposal, so a pool member's
        text or a repeated one drops out. ``backend_calls`` counts the
        epoch's score, improve and rephrase requests, all of them finished."""
        parents = sorted(pool, key=lambda c: c.id)
        pool_texts = {c.prompt.text() for c in pool}
        scorings: dict[str, list[Future]] = {}  # dev scoring by child text
        scorings_lock = threading.Lock()  # pool tasks start scorings too

        def start(child: Prompt) -> None:
            text = child.text()
            with scorings_lock:
                if text not in pool_texts and text not in scorings:
                    scorings[text] = self.submit_fitness(child, epoch)

        expansions: list[tuple[Candidate, Future, Prompt | None]] = []  # (parent, samples, permuted)
        for parent in parents:
            samples = self._submit_improvements(parent, epoch, start)
            permuted = self.permute(parent, epoch)
            if permuted is not None:
                start(permuted)
            expansions.append((parent, samples, permuted))
        rephrasings = self._submit_rephrasings(parents, epoch, start)

        proposals: dict[str, tuple[Prompt, str, Candidate]] = {}  # first proposal by new child text

        def propose(prompt: Prompt, op: str, parent: Candidate) -> None:
            text = prompt.text()
            if text not in pool_texts:
                proposals.setdefault(text, (prompt, op, parent))

        for parent, samples, permuted in expansions:
            for child in self.improve(parent, samples):
                propose(child, "improve", parent)
            for child in self.rephrase(parent, rephrasings):
                propose(child, "rephrase", parent)
            if permuted is not None:
                propose(permuted, "permute", parent)

        scored: list[Candidate] = []
        for text, (prompt, op, parent) in proposals.items():
            try:
                scored.append(self._candidate(prompt, parent, op, epoch, scorings[text]))
            except GatewayError as exc:
                log.warning("scoring failed for %s child of %d: %s", op, parent.id, exc)
        if not scored:
            log.warning("epoch %d produced no successful candidates; pool unchanged", epoch)
        merged = sorted(pool + scored, key=rank_key)
        new_pool = merged[: self.cfg.beam_b]
        self.history.append(
            {
                "epoch": epoch,
                "candidates": to_object(scored),
                "pool": [c.id for c in new_pool],
                "best_fitness": new_pool[0].fitness,
                "best_id": new_pool[0].id,
                "backend_calls": sum(self.backend.calls[p, epoch] for p in ("score", "improve", "rephrase")),
            }
        )
        return new_pool
