from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from apio.corpus import SamplePair
from apio.gateway import Backend, ChatRequest, GatewayError, INFER, ScriptEntry, ScriptedBackend
from apio.config import InductionConfig
from apio.induction import best_of_trials, induce_instruction
from apio.prompts import GEC_TEMPLATE, GENERIC_TEMPLATE, PromptError
from apio.seeding import derive_seed
from conftest import RecordingBackend, scripted_pairs

INDUCE_MATCH = "Could you give an instruction"

KNOWN_INSTRUCTION = (
    "Identify and correct the grammatical error in the given sentence to improve clarity and accuracy."
)


def _pair(i=0):
    return SamplePair(f"p{i}", f"src {i}", (f"ref {i}", f"alt {i}"))


def test_induce_instruction_verbatim():
    backend = RecordingBackend(scripted_pairs([(INDUCE_MATCH, KNOWN_INSTRUCTION)]))
    instruction = induce_instruction(_pair(), GEC_TEMPLATE, backend)
    assert instruction == KNOWN_INSTRUCTION
    # induction samples under the exploration profile
    assert (backend.requests[0].profile.temperature, backend.requests[0].profile.top_p) == (1.0, 1.0)


def test_induce_shows_first_reference():
    backend = RecordingBackend(scripted_pairs([(INDUCE_MATCH, "Do x.")]))
    induce_instruction(_pair(3), GEC_TEMPLATE, backend)
    sent = backend.requests[0].content
    assert "Sentence: src 3" in sent
    assert "Corrected sentence: ref 3" in sent
    assert "alt 3" not in sent


def test_induce_strips_quotes():
    backend = scripted_pairs([(INDUCE_MATCH, '"Fix the grammar."')])
    assert induce_instruction(_pair(), GEC_TEMPLATE, backend) == "Fix the grammar."


def test_induce_sends_one_request_and_an_empty_answer_fails():
    multi_line = scripted_pairs([(INDUCE_MATCH, '"Fix the\ngrammar."')])
    assert induce_instruction(_pair(), GEC_TEMPLATE, multi_line) == "Fix the grammar."
    assert multi_line.calls.total() == 1

    decoration_only = ScriptedBackend([ScriptEntry(match=INDUCE_MATCH, response='""')])
    with pytest.raises(PromptError, match="empty after cleanup"):
        induce_instruction(_pair(), GEC_TEMPLATE, decoration_only)
    assert decoration_only.calls.total() == 1


def _induce_backend(response="Do the rewrite."):
    return ScriptedBackend([ScriptEntry(match=INDUCE_MATCH, response=response)])


def _zero() -> float:
    return 0.0


def _flat_fitness(prompt, dev, trial):
    """A fitness step that sends no request and scores every trial 0."""
    return _zero


def _induced(pairs, cfg, seed, backend):
    """The prompt and reports of ``best_of_trials`` under a flat fitness."""
    return best_of_trials(pairs, pairs, cfg, seed, GENERIC_TEMPLATE, backend, _flat_fitness)


def test_induce_prompt_structure_and_determinism(toy_pairs):
    cfg = InductionConfig(n_instructions=3, n_trials=1)
    first, (report_a,) = _induced(toy_pairs, cfg, 11, _induce_backend())
    second, (report_b,) = _induced(toy_pairs, cfg, 11, _induce_backend())
    assert first == second
    assert report_a.pair_ids == report_b.pair_ids
    assert len(report_a.pair_ids) == 3
    assert len(first.instructions) == 3
    assert first.header == ""
    assert first.footer == GENERIC_TEMPLATE.footer
    assert first.text().count("* ") == 3


def test_induce_prompt_single_instruction_boundary(toy_pairs):
    cfg = InductionConfig(n_instructions=1, n_trials=1)
    prompt, _ = _induced(toy_pairs, cfg, 0, _induce_backend())
    assert len(prompt.instructions) == 1


def _per_pair_backend(pairs):
    """Answers the induce request of each pair with an instruction naming it."""
    return ScriptedBackend(
        [ScriptEntry(match=f"Input: {p.source}\n", response=f"Rewrite {p.id}.") for p in pairs]
    )


def test_best_of_trials_argmax_and_tiebreak(toy_pairs):
    # fitness keyed on the trial; trial 4 planted as the best
    cfg = InductionConfig(n_instructions=2, n_trials=10)
    scores = {t: -1.0 for t in range(10)}
    scores[4] = -0.25
    induced = {}

    def fitness_fn(prompt, dev, trial):
        induced[trial] = prompt
        return lambda: scores[trial]

    best, reports = best_of_trials(
        toy_pairs, toy_pairs, cfg, 5, GENERIC_TEMPLATE, _per_pair_backend(toy_pairs), fitness_fn
    )
    assert [r.fitness for r in reports][4] == -0.25
    assert best == induced[4]
    assert list(best.instructions) == reports[4].instructions == [f"Rewrite {i}." for i in reports[4].pair_ids]

    flat, reports = _induced(toy_pairs, cfg, 5, _per_pair_backend(toy_pairs))
    assert reports[0].pair_ids != reports[1].pair_ids  # so the tie is not trivially met
    assert list(flat.instructions) == reports[0].instructions
    assert all(r.fitness == 0.0 for r in reports)


def test_best_of_trials_call_accounting(toy_pairs):
    cfg = InductionConfig(n_instructions=3, n_trials=10)
    backend = _induce_backend()
    dev_evaluations = []

    def fitness_fn(prompt, dev, trial):
        dev_evaluations.append(prompt)
        return _zero

    _, reports = best_of_trials(toy_pairs, toy_pairs, cfg, 2, GENERIC_TEMPLATE, backend, fitness_fn)
    assert backend.calls.total() == 30  # n_trials x n_instructions; fitness_fn sends none
    assert len(dev_evaluations) == 10
    assert all(r.fitness == 0.0 for r in reports)
    assert sum(r.backend_calls for r in reports) == 30


def test_best_of_trials_induces_every_trial_before_gathering_a_fitness(toy_pairs):
    cfg = InductionConfig(n_instructions=2, n_trials=3)
    backend = _induce_backend()
    events = []

    def fitness_fn(prompt, dev, trial):
        events.append(("submit", backend.calls.total()))

        def gather():
            events.append(("gather", backend.calls.total()))
            return 0.0

        return gather

    best_of_trials(toy_pairs, toy_pairs, cfg, 5, GENERIC_TEMPLATE, backend, fitness_fn)
    assert events == [("submit", 2), ("submit", 4), ("submit", 6)] + [("gather", 6)] * 3


def test_best_of_trials_counts_each_trials_requests_while_others_score(toy_pairs):
    # trial t's scoring sends 100 * (t + 1) requests from a pool of more
    # threads than cores; they overlap the next trials' induction and
    # count to trial t alone, even with threads switching every microsecond
    cfg = InductionConfig(n_instructions=2, n_trials=3)
    backend = ScriptedBackend([ScriptEntry(match="", response="Do the rewrite.")])
    submitted = []

    def fitness_fn(prompt, dev, trial):
        request = ChatRequest("score", INFER, purpose="score", step=trial)
        sends = range(100 * (trial + 1))
        submitted.append(pool.map(lambda _: backend.complete(request), sends, timeout=30))
        return lambda: float(len(list(submitted[trial])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            _, reports = best_of_trials(toy_pairs, toy_pairs, cfg, 5, GENERIC_TEMPLATE, backend, fitness_fn)
    finally:
        sys.setswitchinterval(interval)
    assert [r.backend_calls for r in reports] == [102, 202, 302]
    assert [r.fitness for r in reports] == [100.0, 200.0, 300.0]
    assert backend.calls.total() == 606


def test_best_of_trials_records_each_trials_seed(toy_pairs):
    cfg = InductionConfig(n_instructions=2, n_trials=3)
    _, reports = _induced(toy_pairs, cfg, 5, _induce_backend())
    assert [r.seed for r in reports] == [derive_seed(5, "induce", t) for t in range(3)]
    for report in reports:
        # the recorded seed alone reproduces the trial's pair sample
        picks = random.Random(report.seed).sample(range(len(toy_pairs)), cfg.n_instructions)
        assert report.pair_ids == [toy_pairs[i].id for i in picks]


def test_best_of_trials_skips_failed_trials(toy_pairs):
    # the first trial's one answer (tag 0) is only quotes, later trials succeed
    backend = ScriptedBackend(
        [
            ScriptEntry(match=INDUCE_MATCH, response='""', attempt_tag=0),
            ScriptEntry(match=INDUCE_MATCH, response="Fine instruction."),
        ]
    )
    cfg = InductionConfig(n_instructions=1, n_trials=3)
    best, reports = _induced(toy_pairs, cfg, 9, backend)
    assert reports[0].error is not None
    assert reports[1].error is None
    assert list(best.instructions) == ["Fine instruction."]


class _SecondAnswer(Backend):
    """Answers every request "Do one." but the second, which gets ``second``:
    an answer, or an exception raised in its place."""

    def __init__(self, second) -> None:
        super().__init__()
        self.second = second

    def _complete(self, request: ChatRequest) -> str:
        if self.calls.total() != 2:
            return "Do one."
        if isinstance(self.second, Exception):
            raise self.second
        return self.second


@pytest.mark.parametrize(
    "second, error",
    [('""', "instruction text is empty after cleanup"), (GatewayError("boom"), "boom")],
    ids=["empty-answer", "failed-request"],
)
def test_a_failed_trial_records_its_pairs_and_the_instructions_before_the_failure(toy_pairs, second, error):
    cfg = InductionConfig(n_instructions=3, n_trials=2)
    _, (failed, fine) = _induced(toy_pairs, cfg, 9, _SecondAnswer(second))
    picks = random.Random(derive_seed(9, "induce", 0)).sample(range(len(toy_pairs)), 3)
    assert failed.pair_ids == [toy_pairs[i].id for i in picks]
    assert failed.instructions == ["Do one."]  # so the pair that failed is pair_ids[1]
    assert failed.error == error
    assert (failed.fitness, failed.backend_calls) == (None, 2)
    assert fine.error is None and fine.instructions == ["Do one."] * 3


def test_best_of_trials_all_failed(toy_pairs):
    backend = ScriptedBackend([ScriptEntry(match=INDUCE_MATCH, response='""')])
    cfg = InductionConfig(n_instructions=1, n_trials=2)
    with pytest.raises(GatewayError, match="all induction trials failed"):
        _induced(toy_pairs, cfg, 1, backend)
