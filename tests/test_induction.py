from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from apio.corpus import SamplePair
from apio.gateway import ChatRequest, GatewayError, INFER, ScriptEntry, ScriptedBackend
from apio.config import InductionConfig
from apio.induction import (
    best_of_trials,
    induce_instruction,
    induce_prompt,
)
from apio.prompts import GEC_TEMPLATE, GENERIC_TEMPLATE
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
    sent = backend.requests[0].text()
    assert "Sentence: src 3" in sent
    assert "Corrected sentence: ref 3" in sent
    assert "alt 3" not in sent


def test_induce_strips_quotes():
    backend = scripted_pairs([(INDUCE_MATCH, '"Fix the grammar."')])
    assert induce_instruction(_pair(), GEC_TEMPLATE, backend) == "Fix the grammar."


def test_induce_retries_newline_once_then_errors():
    ok_after_retry = scripted_pairs(
        [(INDUCE_MATCH, "bad\ncompletion"), (INDUCE_MATCH, "Good one.")]
    )
    assert induce_instruction(_pair(), GEC_TEMPLATE, ok_after_retry) == "Good one."
    assert ok_after_retry.n_calls == 2

    always_bad = ScriptedBackend([ScriptEntry(match=INDUCE_MATCH, response="a\nb", sticky=True)])
    with pytest.raises(GatewayError):
        induce_instruction(_pair(), GEC_TEMPLATE, always_bad)
    assert always_bad.n_calls == 2


def _sticky_backend(response="Do the rewrite."):
    return ScriptedBackend([ScriptEntry(match=INDUCE_MATCH, response=response, sticky=True)])


def test_induce_prompt_structure_and_determinism(toy_pairs):
    cfg = InductionConfig(n_instructions=3, n_trials=1, seed=11)
    first, ids_a = induce_prompt(toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend())
    second, ids_b = induce_prompt(toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend())
    assert first == second
    assert ids_a == ids_b
    assert len(first.instructions) == 3
    assert first.header == ""
    assert first.footer == GENERIC_TEMPLATE.footer
    assert first.text().count("* ") == 3


def test_induce_prompt_single_instruction_boundary(toy_pairs):
    cfg = InductionConfig(n_instructions=1, n_trials=1, seed=0)
    prompt, _ = induce_prompt(toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend())
    assert len(prompt.instructions) == 1


def _zero() -> float:
    return 0.0


def _flat_fitness(prompt, dev, via):
    """A fitness step that sends no request and scores every trial 0."""
    return _zero


def test_best_of_trials_argmax_and_tiebreak(toy_pairs):
    # fitness keyed on the sampled pair ids; trial 4 planted as the best
    cfg = InductionConfig(n_instructions=2, n_trials=10, seed=5)
    scores = {t: -1.0 for t in range(10)}
    scores[4] = -0.25
    calls = {"n": -1}

    def fitness_fn(prompt, dev, via):
        calls["n"] += 1
        return lambda score=scores[calls["n"]]: score

    best, reports = best_of_trials(
        toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend(), fitness_fn
    )
    assert [r.fitness for r in reports][4] == -0.25
    assert best == induce_prompt(toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend(), trial_index=4)[0]

    flat, reports = best_of_trials(
        toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend(), _flat_fitness
    )
    assert flat == induce_prompt(toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend(), trial_index=0)[0]
    assert all(r.fitness == 0.0 for r in reports)


def test_best_of_trials_call_accounting(toy_pairs):
    cfg = InductionConfig(n_instructions=3, n_trials=10, seed=2)
    backend = _sticky_backend()
    dev_evaluations = []

    def fitness_fn(prompt, dev, via):
        dev_evaluations.append(prompt)
        return _zero

    _, reports = best_of_trials(toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, backend, fitness_fn)
    assert backend.n_calls == 30  # n_trials x n_instructions; fitness_fn sends none
    assert len(dev_evaluations) == 10
    assert sum(r.dev_evaluations for r in reports) == 10
    assert sum(r.backend_calls for r in reports) == 30


def test_best_of_trials_induces_every_trial_before_gathering_a_fitness(toy_pairs):
    cfg = InductionConfig(n_instructions=2, n_trials=3, seed=5)
    backend = _sticky_backend()
    events = []

    def fitness_fn(prompt, dev, via):
        events.append(("submit", backend.n_calls))

        def gather():
            events.append(("gather", backend.n_calls))
            return 0.0

        return gather

    best_of_trials(toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, backend, fitness_fn)
    assert events == [("submit", 2), ("submit", 4), ("submit", 6)] + [("gather", 6)] * 3


def test_best_of_trials_counts_each_trials_requests_while_others_score(toy_pairs):
    # trial t's scoring sends 100 * (t + 1) requests from a pool of more
    # threads than cores; they overlap the next trials' induction and
    # count to trial t alone, even with threads switching every microsecond
    cfg = InductionConfig(n_instructions=2, n_trials=3, seed=5)
    backend = ScriptedBackend([ScriptEntry(match="", response="Do the rewrite.", sticky=True)])
    submitted = []

    def fitness_fn(prompt, dev, via):
        trial = len(submitted)
        sends = range(100 * (trial + 1))
        submitted.append(pool.map(lambda _: via.complete(ChatRequest("score", INFER)), sends, timeout=30))
        return lambda: float(len(list(submitted[trial])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            _, reports = best_of_trials(toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, backend, fitness_fn)
    finally:
        sys.setswitchinterval(interval)
    assert [r.backend_calls for r in reports] == [102, 202, 302]
    assert [r.fitness for r in reports] == [100.0, 200.0, 300.0]
    assert backend.n_calls == 606


def test_best_of_trials_records_each_trials_seed(toy_pairs):
    cfg = InductionConfig(n_instructions=2, n_trials=3, seed=5)
    _, reports = best_of_trials(
        toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, _sticky_backend(), _flat_fitness
    )
    assert [r.seed for r in reports] == [derive_seed(5, "induce", t) for t in range(3)]
    for report in reports:
        # the recorded seed alone reproduces the trial's pair sample
        picks = random.Random(report.seed).sample(range(len(toy_pairs)), cfg.n_instructions)
        assert report.pair_ids == [toy_pairs[i].id for i in picks]


def test_best_of_trials_skips_failed_trials(toy_pairs):
    # first trial consumes a broken completion twice, later trials succeed
    backend = ScriptedBackend(
        [
            ScriptEntry(match=INDUCE_MATCH, response="bad\nline"),
            ScriptEntry(match=INDUCE_MATCH, response="worse\nline"),
            ScriptEntry(match=INDUCE_MATCH, response="Fine instruction.", sticky=True),
        ]
    )
    cfg = InductionConfig(n_instructions=1, n_trials=3, seed=9)
    best, reports = best_of_trials(toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, backend, _flat_fitness)
    assert reports[0].error is not None
    assert reports[1].error is None
    assert best.instruction_texts() == ["Fine instruction."]


def test_best_of_trials_all_failed(toy_pairs):
    backend = ScriptedBackend([ScriptEntry(match=INDUCE_MATCH, response="a\nb", sticky=True)])
    cfg = InductionConfig(n_instructions=1, n_trials=2, seed=1)
    with pytest.raises(GatewayError, match="all induction trials failed"):
        best_of_trials(toy_pairs, toy_pairs, cfg, GENERIC_TEMPLATE, backend, _flat_fitness)
