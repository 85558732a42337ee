from __future__ import annotations

import json
import logging
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apio.corpus import SamplePair
from apio.cli import main
from apio.gateway import EXPLORE, INFER, Backend, ChatRequest, GatewayError, ScriptEntry, ScriptedBackend
from apio.config import OptimizerConfig
from apio.optimizer import (
    Candidate,
    PromptOptimizer,
    gather_scoring,
    rank_key,
    select_dev_subsample,
    submit_scoring,
)
from apio.prompts import GENERIC_TEMPLATE, Instruction, Prompt
from conftest import SEQUENTIAL, RecordingBackend, rewrite_backend
from toytask import DECOY, PLANTED, make_workspace, script_entries

IMPROVE_MATCH = "Suggest new instruction"
REPHRASE_MATCH = "Generate a variation"


def _prompt(*texts: str) -> Prompt:
    return Prompt("", tuple(Instruction(t) for t in texts), GENERIC_TEMPLATE.footer)


def _engine(pairs, backend, **overrides) -> PromptOptimizer:
    defaults = dict(
        n_epochs=3, beam_b=8, n_permute=2, drift_weight=0.05,
        improve_samples=2, improve_batch=2, dev_subsample=None,
    )
    defaults.update(overrides)
    cfg = OptimizerConfig(**defaults)
    return PromptOptimizer(pairs[:4], pairs, cfg, 13, backend, GENERIC_TEMPLATE, SEQUENTIAL)


# -- fitness ------------------------------------------------------------------


def _distance_pairs():
    return [
        SamplePair("d0", "a b c", ("a b c",)),
        SamplePair("d1", "a b c", ("a b x",)),
        SamplePair("d2", "a b c", ("a x y",)),
        SamplePair("d3", "a b c", ("x y z",)),
    ]


def test_fitness_mean_error_no_parent():
    backend = RecordingBackend(rewrite_backend())
    engine = _engine(_distance_pairs(), backend)
    fit, raw, drift = engine.fitness(_prompt(DECOY), None, engine.submit_fitness(_prompt(DECOY), 0))
    assert raw == pytest.approx(1.5)
    assert drift == 0.0
    assert fit == pytest.approx(-1.5)
    # candidate scoring runs under the low-randomness inference profile
    assert all(c.profile.temperature == 0.0 and c.profile.top_p == 0.1 for c in backend.requests)


class SlowEchoBackend(Backend):
    """Echoes the rendered input after a delay that shrinks with the
    pair's index, so concurrent answers arrive out of input order; inputs
    containing ``fail`` raise."""

    def __init__(self) -> None:
        super().__init__()
        self.threads: set[int] = set()
        self.finished: list[str] = []

    def _complete(self, request):
        self.threads.add(threading.get_ident())
        source = request.content.split("Input: ")[-1].split("\n")[0]
        time.sleep(0.002 * (20 - int(source.split()[1])))
        self.finished.append(source)
        if "fail" in source:
            raise GatewayError(f"scripted failure for {source!r}")
        return source


def _indexed_pairs(n=20, failing=()):
    return [
        SamplePair(f"s{i}", f"item {i} {'fail' if i in failing else 'ok'}", (f"item {i} ok",))
        for i in range(n)
    ]


def score_prompt(prompt, pairs, backend, executor):
    return gather_scoring(submit_scoring(prompt, pairs, backend, executor, 0))


def test_score_prompt_concurrent_keeps_input_order():
    # the empty output is 2 words from both "x y" and "w v": the first is its gold
    pairs = _indexed_pairs() + [SamplePair("empty", "", ("x y z", "x y", "w v"))]
    sequential = score_prompt(_prompt(DECOY), pairs, SlowEchoBackend(), SEQUENTIAL)
    backend = SlowEchoBackend()
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = score_prompt(_prompt(DECOY), pairs, backend, pool)
    assert concurrent == sequential
    mean, scored = concurrent
    outputs, golds, errors = (list(column) for column in zip(*scored))
    assert outputs == [p.source for p in pairs]
    assert golds == [f"item {i} ok" for i in range(20)] + ["x y"]
    assert errors == [0] * 20 + [2]
    assert mean == pytest.approx(2 / 21)
    assert len(backend.threads) > 1


@pytest.mark.parametrize("workers", [None, 1, 8])
def test_score_prompt_failure_waits_for_every_request(workers):
    # ``None``: the long-lived one-thread pool the engine tests share
    pairs = _indexed_pairs(failing=(3, 11))
    backend = SlowEchoBackend()
    with ThreadPoolExecutor(max_workers=workers or 1) as own_pool:
        pool = own_pool if workers else SEQUENTIAL
        with pytest.raises(GatewayError, match="item 3 fail"):
            score_prompt(_prompt(DECOY), pairs, backend, pool)
        # nothing is left in flight once the first failure surfaces
        assert len(backend.finished) == len(pairs)


def test_fitness_zero_drift_for_identical_parent():
    pairs = [
        SamplePair("d0", "a b c", ("a x y",)),
        SamplePair("d1", "a b c", ("x y z",)),
    ]
    engine = _engine(pairs, rewrite_backend())
    prompt = _prompt(DECOY)
    fit, raw, drift = engine.fitness(prompt, prompt, engine.submit_fitness(prompt, 0))
    assert raw == pytest.approx(2.5)
    assert drift == 0.0
    assert fit == pytest.approx(-2.5)


def test_fitness_perfect_outputs(toy_pairs):
    engine = _engine(toy_pairs, rewrite_backend())
    prompt = _prompt(PLANTED)
    fit, raw, drift = engine.fitness(prompt, prompt, engine.submit_fitness(prompt, 0))
    assert (fit, raw, drift) == (0.0, 0.0, 0.0)


def test_fitness_drift_normalized_by_parent_tokens(toy_pairs):
    engine = _engine(toy_pairs, rewrite_backend())
    parent = _prompt(DECOY)
    child = parent.append_instruction(PLANTED)
    _, _, drift = engine.fitness(child, parent, engine.submit_fitness(child, 0))
    added_tokens = len(f"* {PLANTED}".split())
    assert drift == pytest.approx(added_tokens / len(parent.text().split()))


# -- operators ----------------------------------------------------------------


def _seed_candidate(engine: PromptOptimizer, prompt: Prompt) -> Candidate:
    return engine.score_seed(prompt)


def _epoch_children(engine: PromptOptimizer, parent: Candidate, operator: str) -> list[list[str]]:
    """Run epoch 1 on a pool of ``parent`` alone and return the instruction
    texts of each ``operator`` child that it scored, in proposal order."""
    engine.run_epoch([parent], 1)
    return [c["prompt"]["instructions"] for c in engine.history[-1]["candidates"] if c["operator"] == operator]


def test_improve_appends_exactly_one_instruction(toy_pairs):
    entries = [
        # epoch 1's two improve samples have the tags 2 and 3
        ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Keep punctuation unchanged.</new_instruction>",
                    attempt_tag=2),
        ScriptEntry(match=IMPROVE_MATCH, response="pre <new_instruction>Check\nspacing rules.</new_instruction> post",
                    attempt_tag=3),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=2)
    parent = _seed_candidate(engine, _prompt(DECOY, PLANTED))
    children = _epoch_children(engine, parent, "improve")
    assert len(children) == 2
    assert children[0] == [DECOY, PLANTED, "Keep punctuation unchanged."]
    # embedded newline collapsed before the instruction is built
    assert children[1][-1] == "Check spacing rules."


def test_improve_discards_unparseable_samples(toy_pairs):
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response="no tags here", attempt_tag=2),
        ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Valid addition.</new_instruction>", attempt_tag=3),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=2)
    parent = _seed_candidate(engine, _prompt(DECOY))
    children = _epoch_children(engine, parent, "improve")
    assert len(children) == 1
    assert children[0][-1] == "Valid addition."


def test_improve_all_unparseable_yields_zero_children(toy_pairs):
    entries = [ScriptEntry(match=IMPROVE_MATCH, response="nothing tagged")]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=3)
    parent = _seed_candidate(engine, _prompt(DECOY))
    assert _epoch_children(engine, parent, "improve") == []


class FailingNthBackend(Backend):
    """Passes requests to ``inner``, but fails the ``nth`` request (from 0)
    of ``purpose``."""

    def __init__(self, inner: Backend, purpose: str, nth: int) -> None:
        super().__init__()
        self.inner, self.purpose, self.nth = inner, purpose, nth

    def _complete(self, request):
        if request.purpose == self.purpose and self.calls[self.purpose, request.step] == self.nth + 1:
            raise GatewayError(f"injected {self.purpose} failure")
        return self.inner.complete(request)


def test_failed_improve_sample_drops_only_its_child(toy_pairs, caplog):
    # epoch 1's three improve samples have the tags 3 to 5
    entries = [ScriptEntry(match=IMPROVE_MATCH, response=f"<new_instruction>{t}</new_instruction>", attempt_tag=tag)
               for tag, t in enumerate("ABC", start=3)]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=3)
    parent = _seed_candidate(engine, _prompt(DECOY))
    engine.backend = FailingNthBackend(engine.backend, "improve", 1)
    with caplog.at_level(logging.WARNING, logger="apio.optimizer"):
        children = _epoch_children(engine, parent, "improve")
    # sample 1 fails on its way to the script; sample 2 gets its own answer
    assert [c[-1] for c in children] == ["A", "C"]
    assert engine.backend.calls["improve", 1] == 3
    assert "improve sample 1 failed for candidate 0: injected improve failure" in caplog.text


def test_improve_sample_with_nothing_left_drops_only_its_child(toy_pairs, caplog):
    entries = [ScriptEntry(match=IMPROVE_MATCH, response=f"<new_instruction>{t}</new_instruction>", attempt_tag=tag)
               for tag, t in enumerate(("A", '""', "C"), start=3)]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=3)
    parent = _seed_candidate(engine, _prompt(DECOY))
    with caplog.at_level(logging.WARNING, logger="apio.optimizer"):
        children = _epoch_children(engine, parent, "improve")
    assert [c[-1] for c in children] == ["A", "C"]
    assert "improve sample 1 failed for candidate 0: instruction text is empty after cleanup" in caplog.text


def test_improve_meta_shows_worst_error_examples(toy_pairs):
    entries = [ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>X y.</new_instruction>")]
    backend = RecordingBackend(rewrite_backend(entries))
    engine = _engine(toy_pairs, backend, improve_batch=2)
    parent = _seed_candidate(engine, _prompt(DECOY))
    engine.run_epoch([parent], 1)
    meta = next(c.text() for c in backend.requests if IMPROVE_MATCH in c.text())
    assert "Input 1: " in meta and "Input 2: " in meta
    assert "Input 3: " not in meta
    assert "different words." in meta
    # batch is biased toward the parent's worst-error pairs: under the
    # decoy prompt every marker costs one edit, so the two-marker train
    # pair must be among the examples shown
    assert "one foo two foo" in meta
    assert ": 2 different words." in meta


def test_improve_meta_shows_a_multi_line_output_on_one_line(toy_pairs):
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>X y.</new_instruction>"),
        ScriptEntry(match="\nOutput:", response="a\nb"),
    ]
    backend = RecordingBackend(ScriptedBackend(entries))
    engine = _engine(toy_pairs, backend, improve_batch=1)
    engine.run_epoch([_seed_candidate(engine, _prompt(DECOY))], 1)
    meta = next(r.content for r in backend.requests if r.purpose == "improve")
    assert "System's Output 1: a b\n" in meta


def test_rephrase_replaces_one_position(toy_pairs):
    entries = [
        ScriptEntry(match="Instruction:First rule.", response="Rewritten first."),
        ScriptEntry(match="Instruction:Second rule.", response="Rewritten second."),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule."))
    children = _epoch_children(engine, parent, "rephrase")
    assert children == [
        ["Rewritten first.", "Second rule."],
        ["First rule.", "Rewritten second."],
    ]


def test_failed_rephrase_request_drops_only_its_positions_child(toy_pairs, caplog):
    entries = [ScriptEntry(match=REPHRASE_MATCH, response="Rewritten.")]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule.", "Third rule."))
    engine.backend = FailingNthBackend(engine.backend, "rephrase", 1)
    with caplog.at_level(logging.WARNING, logger="apio.optimizer"):
        children = _epoch_children(engine, parent, "rephrase")
    assert children == [
        ["Rewritten.", "Second rule.", "Third rule."],
        ["First rule.", "Second rule.", "Rewritten."],
    ]
    assert engine.backend.calls["rephrase", 1] == 3
    assert "rephrase failed for candidate 0 position 1: injected rephrase failure" in caplog.text


def test_rephrase_with_nothing_left_drops_only_its_positions_child(toy_pairs, caplog):
    entries = [ScriptEntry(match=f"Instruction:{i} rule.", response=r)
               for i, r in [("First", "Rewritten\nfirst."), ("Second", '""'), ("Third", "Rewritten third.")]]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule.", "Third rule."))
    with caplog.at_level(logging.WARNING, logger="apio.optimizer"):
        children = _epoch_children(engine, parent, "rephrase")
    assert children == [
        ["Rewritten first.", "Second rule.", "Third rule."],
        ["First rule.", "Second rule.", "Rewritten third."],
    ]
    assert "rephrase failed for candidate 0 position 1: instruction text is empty after cleanup" in caplog.text


def test_rephrase_drops_identical_and_empty(toy_pairs):
    """An empty rephrasing makes no child; one that repeats its instruction
    makes the parent's twin, which the epoch drops where it proposes."""
    entries = [
        ScriptEntry(match="Instruction:First rule.", response="First rule."),  # the parent's twin
        ScriptEntry(match="Instruction:Second rule.", response="   "),  # empty: no child
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule."))
    assert _epoch_children(engine, parent, "rephrase") == []


def test_epoch_scores_each_new_child_text_once(toy_pairs):
    """Two improve samples propose one instruction and a rephrasing echoes
    its instruction: the epoch scores the improve child once, and neither
    scores nor records the parent's twin."""
    parent = _prompt("First rule.", "Second rule.")
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Added rule.</new_instruction>"),
        ScriptEntry(match="Instruction:First rule.", mode="echo_instruction"),
        ScriptEntry(match="Instruction:Second rule.", response="Rewritten second."),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=2)
    engine.run_epoch([engine.score_seed(parent)], 1)
    children = [c["prompt"]["instructions"] for c in engine.history[-1]["candidates"]]
    assert children == [
        ["First rule.", "Second rule.", "Added rule."],
        ["First rule.", "Rewritten second."],
        ["Second rule.", "First rule."],
    ]
    assert list(parent.instructions) not in children
    window = min(len(engine.train), 2 * engine.cfg.improve_batch)
    assert engine.backend.calls["improve", 1] == 2
    assert engine.backend.calls["score", 1] == len(children) * len(engine.dev_eval) + window


def test_rephrase_echo_backend_produces_no_children(toy_pairs):
    entries = [ScriptEntry(match=REPHRASE_MATCH, mode="echo_instruction")]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule."))
    assert _epoch_children(engine, parent, "rephrase") == []


def test_permute_is_seeded_transposition(toy_pairs):
    engine = _engine(toy_pairs, rewrite_backend())
    parent = _seed_candidate(engine, _prompt("A.", "B.", "C."))
    child = engine.permute(parent, epoch=1)
    again = engine.permute(parent, epoch=1)
    assert child == again
    original = list(parent.prompt.instructions)
    permuted = list(child.instructions)
    assert sorted(original) == sorted(permuted)
    changed = [i for i, (a, b) in enumerate(zip(original, permuted)) if a != b]
    assert len(changed) == 2  # n_permute=2 selects a transposition
    i, j = changed
    assert permuted[i] == original[j] and permuted[j] == original[i]


def test_permute_skipped_below_two_instructions(toy_pairs):
    engine = _engine(toy_pairs, rewrite_backend())
    parent = _seed_candidate(engine, _prompt("Only rule."))
    assert engine.permute(parent, epoch=1) is None


@given(st.lists(st.integers(0, 50), min_size=2, max_size=8, unique=True), st.integers(0, 10))
@settings(max_examples=100)
def test_permute_preserves_multiset(labels, epoch):
    pairs = [SamplePair("d", "a", ("a",))]
    engine = _engine(pairs, rewrite_backend(), dev_subsample=None)
    prompt = _prompt(*[f"Rule {n}." for n in labels])
    parent = Candidate(0, prompt, 0.0, 0.0, 0.0, None, "init", 0)
    child = engine.permute(parent, epoch)
    assert sorted(child.instructions) == sorted(prompt.instructions)
    assert child.instructions != prompt.instructions


# -- epoch loop ---------------------------------------------------------------


def _toy_engine(toy_pairs, planted_offset=2, improve_samples=2, **overrides):
    entries = [ScriptEntry(**e) for e in script_entries(planted_offset, improve_samples)]
    backend = ScriptedBackend(entries)
    return _engine(toy_pairs, backend, improve_samples=improve_samples, **overrides)


def test_run_epoch_planted_child_ranks_first(toy_pairs):
    engine = _toy_engine(toy_pairs, planted_offset=0, improve_samples=2)
    pool = [engine.score_seed(_prompt(DECOY))]
    new_pool = engine.run_epoch(pool, epoch=1)
    best = new_pool[0]
    assert best.raw_error == 0.0
    assert PLANTED in best.prompt.instructions
    assert best.operator == "improve"
    assert len(new_pool) <= engine.cfg.beam_b


def test_run_epoch_dedup_and_capacity(toy_pairs):
    engine = _toy_engine(toy_pairs, improve_samples=4, beam_b=4)
    pool = [engine.score_seed(_prompt(DECOY))]
    for epoch in (1, 2, 3):
        pool = engine.run_epoch(pool, epoch)
        texts = [c.prompt.text() for c in pool]
        assert len(texts) == len(set(texts))
        assert len(pool) <= 4


def test_run_epoch_elitism_nondecreasing(toy_pairs):
    engine = _toy_engine(toy_pairs, improve_samples=3, beam_b=6)
    pool = [engine.score_seed(_prompt(DECOY))]
    best = pool[0].fitness
    for epoch in range(1, 5):
        pool = engine.run_epoch(pool, epoch)
        assert pool[0].fitness >= best
        best = pool[0].fitness


def test_run_epoch_tie_breaks_to_older_id(toy_pairs):
    engine = _toy_engine(toy_pairs)
    pool = [engine.score_seed(_prompt(DECOY))]
    pool = engine.run_epoch(pool, 1)
    ranked = sorted(pool, key=lambda c: (-c.fitness, c.id))
    assert pool == ranked


def test_run_epoch_budget_bound(toy_pairs):
    engine = _toy_engine(toy_pairs, improve_samples=4, beam_b=8)
    pool = [engine.score_seed(_prompt(DECOY))]
    for epoch in (1, 2):
        before_pool = len(pool)
        max_instructions = max(len(c.prompt.instructions) for c in pool)
        pool = engine.run_epoch(pool, epoch)
        entry = engine.history[-1]
        window = 2 * engine.cfg.improve_batch
        bound = before_pool * (window + engine.cfg.improve_samples + max_instructions) + len(
            entry["candidates"]
        ) * len(engine.dev_eval)
        assert entry["backend_calls"] <= bound


class OtherStepTraffic(ScriptedBackend):
    """Sends a scoring request of step 0 beside each request of a later
    step, as a concurrent scoring of another epoch would."""

    def _complete(self, request):
        if request.step:
            self.complete(ChatRequest("Input: x\nOutput:", INFER, purpose="score", step=0))
        return super()._complete(request)


def test_epoch_backend_calls_leave_out_requests_of_other_steps(toy_pairs):
    histories = []
    for cls in (ScriptedBackend, OtherStepTraffic):
        engine = _engine(toy_pairs, cls([ScriptEntry(**e) for e in script_entries()]))
        engine.run_epoch([engine.score_seed(_prompt(DECOY))], 1)
        histories.append(engine.history)
    assert histories[0] == histories[1]
    calls = engine.backend.calls
    assert histories[1][0]["backend_calls"] == calls.total() - calls["score", 0]
    assert calls["score", 0] == len(engine.dev_eval) + histories[1][0]["backend_calls"]


class InflightBackend(Backend):
    """Serves the toy script, holding each inference request for a moment,
    and records the most distinct prompts with inference in flight at once."""

    def __init__(self) -> None:
        super().__init__()
        self.script = ScriptedBackend([ScriptEntry(**e) for e in script_entries()])
        self.in_flight: Counter[str] = Counter()
        self.peak_prompts = 0
        self._lock = threading.Lock()

    def _complete(self, request):
        if request.profile != INFER:
            return self.script.complete(request)
        prompt = request.content.split("\nInput: ")[0]
        with self._lock:
            self.in_flight[prompt] += 1
            self.peak_prompts = max(self.peak_prompts, len(+self.in_flight))
        try:
            time.sleep(0.02)
            return self.script.complete(request)
        finally:
            with self._lock:
                self.in_flight[prompt] -= 1


def test_run_epoch_overlaps_scoring_of_several_children(toy_pairs):
    def run(workers):
        backend = InflightBackend()
        cfg = OptimizerConfig(n_epochs=2, beam_b=4, improve_samples=3, dev_subsample=3)
        with ThreadPoolExecutor(max_workers=workers) as executor:
            engine = PromptOptimizer(toy_pairs[:4], toy_pairs, cfg, 13, backend, GENERIC_TEMPLATE, executor)
            pool = [engine.score_seed(_prompt(DECOY, DECOY))]
            for epoch in (1, 2):
                pool = engine.run_epoch(pool, epoch)
        return backend.peak_prompts, engine.history

    sequential_peak, sequential = run(1)
    concurrent_peak, concurrent = run(8)
    assert sequential_peak == 1
    assert concurrent_peak > 1  # children's dev requests share one wait
    assert concurrent == sequential


class RendezvousBackend(ScriptedBackend):
    """Serves the toy script, but each request of ``purposes`` first waits,
    up to 5 s, for another such request to arrive. ``met`` counts the waits
    that another request ended, and ``arrivals`` holds the (content, tag)
    of each such request in arrival order. With ``once``, the first meeting
    ends every later wait."""

    def __init__(self, purposes: set[str], once: bool = False) -> None:
        super().__init__([ScriptEntry(**e) for e in script_entries()])
        self.purposes, self.once = purposes, once
        self.barrier = threading.Barrier(2, timeout=5)
        self.met = 0
        self.arrivals: list[tuple[str, int]] = []
        self._lock = threading.Lock()

    def _complete(self, request):
        if request.purpose in self.purposes:
            with self._lock:
                self.arrivals.append((request.content, request.attempt_tag))
            try:
                self.barrier.wait()
            except threading.BrokenBarrierError:
                pass
            else:
                with self._lock:
                    self.met += 1
                if self.once:
                    self.barrier.abort()
        return super()._complete(request)


def _two_parent_epoch(toy_pairs, backend, executor) -> PromptOptimizer:
    cfg = OptimizerConfig(beam_b=6, improve_samples=3, improve_batch=2, dev_subsample=3)
    engine = PromptOptimizer(toy_pairs[:4], toy_pairs, cfg, 13, backend, GENERIC_TEMPLATE, executor)
    pool = [engine.score_seed(_prompt(DECOY, 'Replace "a" with "a".')), engine.score_seed(_prompt(PLANTED))]
    engine.run_epoch(pool, 1)
    return engine


def test_run_epoch_sends_explore_requests_of_several_parents_at_once(toy_pairs):
    with ThreadPoolExecutor(max_workers=8) as executor:
        backend = RendezvousBackend({"improve", "rephrase"}, once=True)
        concurrent = _two_parent_epoch(toy_pairs, backend, executor)
    assert backend.met >= 1  # two of them waited for each other
    reference = _two_parent_epoch(toy_pairs, ScriptedBackend([ScriptEntry(**e) for e in script_entries()]), SEQUENTIAL)
    assert concurrent.history == reference.history


def test_each_parents_improve_samples_reach_the_backend_in_tag_order(toy_pairs):
    with ThreadPoolExecutor(max_workers=8) as executor:
        backend = RendezvousBackend({"improve"})
        _two_parent_epoch(toy_pairs, backend, executor)
    # the parents' samples went out side by side, each parent's one at a time
    assert backend.met == len(backend.arrivals) == 6
    tags: dict[str, list[int]] = {}
    for content, tag in backend.arrivals:
        tags.setdefault(content, []).append(tag)
    assert list(tags.values()) == [[3, 4, 5]] * 2


def test_epoch_sends_one_rephrase_request_per_distinct_instruction(toy_pairs):
    engine = _toy_engine(toy_pairs, improve_samples=3, beam_b=6)
    pool = [engine.score_seed(_prompt(DECOY, 'Replace "a" with "a".'))]
    shared = 0
    for epoch in (1, 2, 3):
        instructions = [ins for c in pool for ins in c.prompt.instructions]
        shared += len(instructions) - len(set(instructions))
        pool = engine.run_epoch(pool, epoch)
        assert engine.backend.calls["rephrase", epoch] == len(set(instructions))
    assert shared > 0  # parents held instructions in common


def test_epochs_score_each_child_once_under_rapid_thread_switching(toy_pairs):
    """Pool tasks and the main thread start children's scorings side by
    side; with threads switching every few microseconds, every child is
    still scored once and the run matches the sequential one."""

    def run(executor):
        engine = _toy_engine(toy_pairs, improve_samples=4, beam_b=8, dev_subsample=3)
        engine.executor = executor
        pool = [engine.score_seed(_prompt(DECOY, 'Replace "a" with "a".'))]
        windows = []
        for epoch in (1, 2, 3):
            windows.append(len(pool) * min(len(engine.train), 2 * engine.cfg.improve_batch))
            pool = engine.run_epoch(pool, epoch)
        return engine, windows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=16) as executor:
            engine, windows = run(executor)
    finally:
        sys.setswitchinterval(interval)
    for entry, window in zip(engine.history, windows):
        scored = len(entry["candidates"]) * len(engine.dev_eval)
        assert engine.backend.calls["score", entry["epoch"]] == window + scored
    assert engine.history == run(SEQUENTIAL)[0].history


def test_failed_rephrase_of_a_shared_instruction_drops_it_for_every_parent(toy_pairs, caplog):
    shared = "Shared rule."
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Add more.</new_instruction>"),
        ScriptEntry(match=REPHRASE_MATCH, response="Say it again."),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=1)
    pool = [engine.score_seed(_prompt(shared, "Rule one.")), engine.score_seed(_prompt("Rule two.", shared))]
    # the epoch's first rephrase request is the shared instruction's; only it fails
    engine.backend = FailingNthBackend(engine.backend, "rephrase", 0)
    with caplog.at_level(logging.WARNING, logger="apio.optimizer"):
        engine.run_epoch(pool, 1)
    rephrased = [(c["parent_id"], c["prompt"]["instructions"])
                 for c in engine.history[-1]["candidates"] if c["operator"] == "rephrase"]
    assert rephrased == [(0, [shared, "Say it again."]), (1, ["Say it again.", shared])]
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("rephrase failed")] == [
        "rephrase failed for candidate 0 position 0: injected rephrase failure",
        "rephrase failed for candidate 1 position 1: injected rephrase failure",
    ]
    assert engine.backend.calls["rephrase", 1] == 3


class InlineExecutor(Executor):
    """Runs each submitted call at once in the submitting thread, so the
    backend's request log shows when each request was submitted."""

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:
            future.set_exception(exc)
        return future


def _prompt_of(request) -> str:
    """The rendered prompt of an inference request, without its input."""
    return request.content.split("\nInput: ")[0]


def _rendered(prompt: Prompt) -> str:
    return prompt.render("x").split("\nInput: ")[0]


def test_run_epoch_queues_each_parents_window_improve_task_and_permute_child_in_turn(toy_pairs):
    def engine_for(executor):
        backend = RecordingBackend(ScriptedBackend([ScriptEntry(**e) for e in script_entries()]))
        cfg = OptimizerConfig(beam_b=6, improve_samples=3, improve_batch=2, dev_subsample=3)
        return PromptOptimizer(toy_pairs[:4], toy_pairs, cfg, 13, backend, GENERIC_TEMPLATE, executor)

    engine = engine_for(InlineExecutor())
    pool = engine.run_epoch([engine.score_seed(_prompt(DECOY, 'Replace "a" with "a".'))], 1)
    assert len(pool) > 2
    start = len(engine.backend.requests)
    engine.run_epoch(pool, 2)
    calls = engine.backend.requests[start:]
    prompts = [_prompt_of(c) for c in calls]
    parents = sorted(pool, key=lambda c: c.id)
    pool_texts = {c.prompt.text() for c in pool}

    # each parent's turn opens with its window (2 x improve_batch train
    # pairs) and ends where the next parent's window or the rephrasing starts
    bounds = [prompts.index(_rendered(p.prompt)) for p in parents]
    bounds.append(next(i for i, c in enumerate(calls) if c.purpose == "rephrase"))
    assert bounds == sorted(bounds)
    improve_calls = 0
    for parent, lo, hi in zip(parents, bounds, bounds[1:]):
        turn = calls[lo:hi]
        assert prompts[lo:lo + 4] == [_rendered(parent.prompt)] * 4
        improves = [i for i, c in enumerate(turn) if c.purpose == "improve"]
        assert improves[0] == 4
        improve_calls += len(improves)
        # its permute child, when the text is new, is scored on the dev
        # subsample after the window and before the next parent's window
        child = engine.permute(parent, 2)
        if child is not None and child.text() not in pool_texts and _rendered(child) not in prompts[:lo]:
            assert prompts[lo + 4:hi].count(_rendered(child)) == 3
    assert improve_calls == sum(c.purpose == "improve" for c in calls)

    # submitting early changes no result
    reference = engine_for(SEQUENTIAL)
    pool = reference.run_epoch([reference.score_seed(_prompt(DECOY, 'Replace "a" with "a".'))], 1)
    reference.run_epoch(pool, 2)
    assert reference.history == engine.history


def test_permute_child_duplicating_an_earlier_proposal_is_scored_once(toy_pairs):
    first, second = 'Replace "zz" with "zz".', 'Replace "foo" with "bar".'
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response=f"<new_instruction>{second}</new_instruction>"),
        ScriptEntry(match=REPHRASE_MATCH, mode="echo_instruction"),
        ScriptEntry(match="\nOutput:", mode="rewrite_rules"),
    ]
    engine = _engine(toy_pairs, RecordingBackend(ScriptedBackend(entries)), improve_samples=1)
    # parent 0's improve child and parent 1's permute child are one prompt
    pool = [engine.score_seed(_prompt(first)), engine.score_seed(_prompt(second, first))]
    assert engine.permute(pool[1], 1) == _prompt(first, second)
    start = len(engine.backend.requests)
    engine.run_epoch(pool, 1)
    calls = engine.backend.requests[start:]
    assert sum(_prompt_of(c) == _rendered(_prompt(first, second)) for c in calls) == len(engine.dev_eval)
    candidates = engine.history[-1]["candidates"]
    twins = [c for c in candidates if c["prompt"]["instructions"] == [first, second]]
    assert [(c["operator"], c["parent_id"]) for c in twins] == [("improve", 0)]
    assert [c["operator"] for c in candidates if c["parent_id"] == 1] == ["improve"]


class FailingPromptBackend(Backend):
    """Passes requests to ``inner``, but fails every inference request made
    under the prompt ``failing``."""

    def __init__(self, inner: Backend, failing: Prompt) -> None:
        super().__init__()
        self.inner = inner
        self.failing = _rendered(failing)

    def _complete(self, request):
        if request.profile == INFER and _prompt_of(request) == self.failing:
            raise GatewayError("injected window failure")
        return self.inner.complete(request)


def test_failed_window_drops_only_that_parents_improve_children(toy_pairs, caplog):
    def epoch(fail_first_parent):
        entries = [
            ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Add more.</new_instruction>"),
            ScriptEntry(match=REPHRASE_MATCH, response="Say it again."),
            ScriptEntry(match="\nOutput:", mode="rewrite_rules"),
        ]
        engine = _engine(toy_pairs, ScriptedBackend(entries), improve_samples=2)
        pool = [engine.score_seed(_prompt(DECOY, "Rule one.")), engine.score_seed(_prompt("Rule two.", DECOY))]
        if fail_first_parent:
            # the parents are scored: from here on, only the first one's window fails
            engine.backend = FailingPromptBackend(engine.backend, pool[0].prompt)
        engine.run_epoch(pool, 1)
        return [
            (c["prompt"]["instructions"], c["operator"], c["parent_id"], c["fitness"])
            for c in engine.history[-1]["candidates"]
        ]

    clean = epoch(False)
    with caplog.at_level(logging.WARNING, logger="apio.optimizer"):
        failed = epoch(True)
    assert failed == [c for c in clean if (c[1], c[2]) != ("improve", 0)]
    assert {(op, parent) for _, op, parent, _ in failed} == {
        ("rephrase", 0), ("permute", 0), ("improve", 1), ("rephrase", 1), ("permute", 1)
    }
    assert "improve failed for candidate 0: injected window failure" in caplog.text


def test_zero_successful_candidates_keeps_pool(toy_pairs):
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response="untagged"),
        ScriptEntry(match=REPHRASE_MATCH, mode="echo_instruction"),
        ScriptEntry(match="\nOutput:", mode="rewrite_rules"),
    ]
    engine = _engine(toy_pairs, ScriptedBackend(entries))
    pool = [engine.score_seed(_prompt("Only rule."))]  # no permute possible
    assert engine.run_epoch(pool, 1) == pool


# -- optimize -----------------------------------------------------------------


def test_optimize_zero_epochs_returns_init(tmp_path):
    paths = make_workspace(tmp_path, n_epochs=0, beam_b=4)
    args = ["--config", str(paths["config"]), "--run-id", "r", "--runs-dir", str(paths["runs"]),
            "--script", str(paths["script"])]
    assert main(["induce", *args]) == 0
    assert main(["optimize", *args]) == 0
    run = paths["runs"] / "r"
    report = json.loads((run / "final_report.json").read_text(encoding="utf-8"))
    assert report["best_id"] == 0
    assert [c["operator"] for c in report["top5"]] == ["init"]
    assert json.loads((run / "history.json").read_text(encoding="utf-8")) == {"epochs": []}
    state = json.loads((run / "state.json").read_text(encoding="utf-8"))
    assert (state["phase"], state["epoch"], state["next_id"]) == ("done", 0, 1)


def test_rank_key_prefers_fitness_then_age():
    prompt = _prompt("A.")
    mk = lambda cid, fit: Candidate(cid, prompt, fit, 0.0, 0.0, None, "init", 0)
    assert min([mk(0, -1.0), mk(1, -0.5)], key=rank_key).id == 1
    assert min([mk(1, -0.5), mk(0, -0.5)], key=rank_key).id == 0


def test_select_dev_subsample_fixed_and_sorted(toy_pairs):
    cfg = OptimizerConfig(dev_subsample=3)
    first = select_dev_subsample(toy_pairs, cfg, 9)
    second = select_dev_subsample(toy_pairs, cfg, 9)
    assert first == second
    assert len(first) == 3
    assert select_dev_subsample(toy_pairs, OptimizerConfig(dev_subsample=None), 9) == list(toy_pairs)
    assert select_dev_subsample(toy_pairs, OptimizerConfig(dev_subsample=99), 9) == list(toy_pairs)
