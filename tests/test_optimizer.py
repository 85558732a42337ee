from __future__ import annotations

import json
import logging
import threading
import time
from collections import Counter
from concurrent.futures import Executor, Future, ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apio.corpus import SamplePair
from apio.cli import main
from apio.gateway import EXPLORE, INFER, Backend, GatewayError, ScriptEntry, ScriptedBackend
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
        improve_samples=2, improve_batch=2, dev_subsample=None, seed=13,
    )
    defaults.update(overrides)
    cfg = OptimizerConfig(**defaults)
    return PromptOptimizer(pairs[:4], pairs, cfg, backend, GENERIC_TEMPLATE, SEQUENTIAL)


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
    fit, raw, drift = engine.fitness(_prompt(DECOY), None, engine.submit_fitness(_prompt(DECOY)))
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
        source = request.text().split("Input: ")[-1].split("\n")[0]
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
    return gather_scoring(submit_scoring(prompt, pairs, backend, executor))


def test_score_prompt_concurrent_keeps_input_order():
    pairs = _indexed_pairs() + [SamplePair("empty", "", ("x y",))]
    sequential = score_prompt(_prompt(DECOY), pairs, SlowEchoBackend(), SEQUENTIAL)
    backend = SlowEchoBackend()
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = score_prompt(_prompt(DECOY), pairs, backend, pool)
    assert concurrent == sequential
    mean, errors, outputs = concurrent
    assert outputs == [p.source for p in pairs]
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
    fit, raw, drift = engine.fitness(prompt, prompt, engine.submit_fitness(prompt))
    assert raw == pytest.approx(2.5)
    assert drift == 0.0
    assert fit == pytest.approx(-2.5)


def test_fitness_perfect_outputs(toy_pairs):
    engine = _engine(toy_pairs, rewrite_backend())
    prompt = _prompt(PLANTED)
    fit, raw, drift = engine.fitness(prompt, prompt, engine.submit_fitness(prompt))
    assert (fit, raw, drift) == (0.0, 0.0, 0.0)


def test_fitness_drift_normalized_by_parent_tokens(toy_pairs):
    engine = _engine(toy_pairs, rewrite_backend())
    parent = _prompt(DECOY)
    child = parent.append_instruction(PLANTED)
    _, _, drift = engine.fitness(child, parent, engine.submit_fitness(child))
    added_tokens = len(f"* {PLANTED}".split())
    assert drift == pytest.approx(added_tokens / len(parent.text().split()))


# -- operators ----------------------------------------------------------------


def _seed_candidate(engine: PromptOptimizer, prompt: Prompt) -> Candidate:
    return engine.score_seed(prompt)


def test_improve_appends_exactly_one_instruction(toy_pairs):
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Keep punctuation unchanged.</new_instruction>"),
        ScriptEntry(match=IMPROVE_MATCH, response="pre <new_instruction>Check\nspacing rules.</new_instruction> post"),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=2)
    parent = _seed_candidate(engine, _prompt(DECOY, PLANTED))
    children = engine.improve(parent, epoch=1)
    assert len(children) == 2
    assert children[0].instruction_texts() == [DECOY, PLANTED, "Keep punctuation unchanged."]
    # embedded newline collapsed before the instruction is built
    assert children[1].instruction_texts()[-1] == "Check spacing rules."


def test_improve_discards_unparseable_samples(toy_pairs):
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response="no tags here"),
        ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Valid addition.</new_instruction>"),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=2)
    parent = _seed_candidate(engine, _prompt(DECOY))
    children = engine.improve(parent, epoch=1)
    assert len(children) == 1
    assert children[0].instruction_texts()[-1] == "Valid addition."


def test_improve_all_unparseable_yields_zero_children(toy_pairs):
    entries = [ScriptEntry(match=IMPROVE_MATCH, response="nothing tagged", sticky=True)]
    engine = _engine(toy_pairs, rewrite_backend(entries), improve_samples=3)
    parent = _seed_candidate(engine, _prompt(DECOY))
    assert engine.improve(parent, epoch=1) == []


def test_improve_meta_shows_worst_error_examples(toy_pairs):
    entries = [ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>X y.</new_instruction>", sticky=True)]
    backend = RecordingBackend(rewrite_backend(entries))
    engine = _engine(toy_pairs, backend, improve_batch=2)
    parent = _seed_candidate(engine, _prompt(DECOY))
    engine.improve(parent, epoch=1)
    meta = next(c.text() for c in backend.requests if IMPROVE_MATCH in c.text())
    assert "Input 1: " in meta and "Input 2: " in meta
    assert "Input 3: " not in meta
    assert "different words." in meta
    # batch is biased toward the parent's worst-error pairs: under the
    # decoy prompt every marker costs one edit, so the two-marker train
    # pair must be among the examples shown
    assert "one foo two foo" in meta
    assert ": 2 different words." in meta


def test_rephrase_replaces_one_position(toy_pairs):
    entries = [
        ScriptEntry(match=REPHRASE_MATCH, response="Rewritten first."),
        ScriptEntry(match=REPHRASE_MATCH, response="Rewritten second."),
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule."))
    children = engine.rephrase(parent, epoch=1)
    assert [c.instruction_texts() for c in children] == [
        ["Rewritten first.", "Second rule."],
        ["First rule.", "Rewritten second."],
    ]


def test_rephrase_drops_identical_and_empty(toy_pairs):
    entries = [
        ScriptEntry(match=REPHRASE_MATCH, response="First rule."),  # identical -> dropped
        ScriptEntry(match=REPHRASE_MATCH, response="   "),  # empty -> skipped
    ]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule."))
    assert engine.rephrase(parent, epoch=1) == []


def test_rephrase_echo_backend_produces_no_children(toy_pairs):
    entries = [ScriptEntry(match=REPHRASE_MATCH, mode="echo_instruction", sticky=True)]
    engine = _engine(toy_pairs, rewrite_backend(entries))
    parent = _seed_candidate(engine, _prompt("First rule.", "Second rule."))
    assert engine.rephrase(parent, epoch=1) == []


def test_permute_is_seeded_transposition(toy_pairs):
    engine = _engine(toy_pairs, rewrite_backend())
    parent = _seed_candidate(engine, _prompt("A.", "B.", "C."))
    child = engine.permute(parent, epoch=1)
    again = engine.permute(parent, epoch=1)
    assert child == again
    original = parent.prompt.instruction_texts()
    permuted = child.instruction_texts()
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
    assert sorted(child.instruction_texts()) == sorted(prompt.instruction_texts())
    assert child.instruction_texts() != prompt.instruction_texts()


# -- epoch loop ---------------------------------------------------------------


def _toy_engine(toy_pairs, planted_offset=2, **overrides):
    entries = [ScriptEntry(**e) for e in script_entries(planted_offset=planted_offset)]
    backend = ScriptedBackend(entries)
    return _engine(toy_pairs, backend, **overrides)


def test_run_epoch_planted_child_ranks_first(toy_pairs):
    engine = _toy_engine(toy_pairs, planted_offset=0, improve_samples=2)
    pool = [engine.score_seed(_prompt(DECOY))]
    new_pool = engine.run_epoch(pool, epoch=1)
    best = new_pool[0]
    assert best.raw_error == 0.0
    assert PLANTED in best.prompt.instruction_texts()
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
        prompt = request.text().split("\nInput: ")[0]
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
        cfg = OptimizerConfig(n_epochs=2, beam_b=4, improve_samples=3, dev_subsample=3, seed=13)
        with ThreadPoolExecutor(max_workers=workers) as executor:
            engine = PromptOptimizer(toy_pairs[:4], toy_pairs, cfg, backend, GENERIC_TEMPLATE, executor)
            pool = [engine.score_seed(_prompt(DECOY, DECOY))]
            for epoch in (1, 2):
                pool = engine.run_epoch(pool, epoch)
        return backend.peak_prompts, engine.history

    sequential_peak, sequential = run(1)
    concurrent_peak, concurrent = run(8)
    assert sequential_peak == 1
    assert concurrent_peak > 1  # children's dev requests share one wait
    assert concurrent == sequential


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
    return request.text().split("\nInput: ")[0]


def _rendered(prompt: Prompt) -> str:
    return prompt.render("x").split("\nInput: ")[0]


def test_run_epoch_submits_windows_and_permute_children_before_exploring(toy_pairs):
    def engine_for(executor):
        backend = RecordingBackend(ScriptedBackend([ScriptEntry(**e) for e in script_entries()]))
        cfg = OptimizerConfig(beam_b=6, improve_samples=3, improve_batch=2, dev_subsample=3, seed=13)
        return PromptOptimizer(toy_pairs[:4], toy_pairs, cfg, backend, GENERIC_TEMPLATE, executor)

    engine = engine_for(InlineExecutor())
    pool = engine.run_epoch([engine.score_seed(_prompt(DECOY, 'Replace "a" with "a".'))], 1)
    assert len(pool) > 2
    start = len(engine.backend.requests)
    engine.run_epoch(pool, 2)
    calls = engine.backend.requests[start:]
    first_explore = next(i for i, c in enumerate(calls) if c.profile == EXPLORE)

    # per parent in id order: its window (2 x improve_batch train pairs),
    # then its permute child's dev subsample unless the text is not new
    expected, seen = [], {c.prompt.text() for c in pool}
    for parent in sorted(pool, key=lambda c: c.id):
        expected += [_rendered(parent.prompt)] * 4
        child = engine.permute(parent, 2)
        if child is not None and child.text() not in seen:
            seen.add(child.text())
            expected += [_rendered(child)] * 3
    assert [_prompt_of(c) for c in calls[:first_explore]] == expected
    assert any(c.profile == INFER for c in calls[first_explore:])

    # submitting early changes no result
    reference = engine_for(SEQUENTIAL)
    pool = reference.run_epoch([reference.score_seed(_prompt(DECOY, 'Replace "a" with "a".'))], 1)
    reference.run_epoch(pool, 2)
    assert reference.history == engine.history


def test_permute_child_duplicating_an_earlier_proposal_is_scored_once(toy_pairs):
    first, second = 'Replace "zz" with "zz".', 'Replace "foo" with "bar".'
    entries = [
        ScriptEntry(match=IMPROVE_MATCH, response=f"<new_instruction>{second}</new_instruction>", sticky=True),
        ScriptEntry(match=REPHRASE_MATCH, mode="echo_instruction", sticky=True),
        ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True),
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
            ScriptEntry(match=IMPROVE_MATCH, response="<new_instruction>Add more.</new_instruction>", sticky=True),
            ScriptEntry(match=REPHRASE_MATCH, response="Say it again.", sticky=True),
            ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True),
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
        ScriptEntry(match=IMPROVE_MATCH, response="untagged", sticky=True),
        ScriptEntry(match=REPHRASE_MATCH, mode="echo_instruction", sticky=True),
        ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True),
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
    cfg = OptimizerConfig(dev_subsample=3, seed=9)
    first = select_dev_subsample(toy_pairs, cfg)
    second = select_dev_subsample(toy_pairs, cfg)
    assert first == second
    assert len(first) == 3
    assert select_dev_subsample(toy_pairs, OptimizerConfig(dev_subsample=None)) == list(toy_pairs)
    assert select_dev_subsample(toy_pairs, OptimizerConfig(dev_subsample=99)) == list(toy_pairs)
