"""A plain reference of one optimize epoch, checked against
``PromptOptimizer.run_epoch`` on drawn configs, pools and answer tables.

The reference is written from README and the docstrings, not from
``run_epoch``: it sends one request at a time on the calling thread and
calls only public names. ``run_epoch`` must write the same history
records, keep the same pools and send the same multiset of requests on
pools of 1, 2 and 8 threads (differential testing).
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import Executor, ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from apio.config import OptimizerConfig, to_object
from apio.corpus import SamplePair
from apio.gateway import EXPLORE, INFER, Backend, ChatRequest, GatewayError, ScriptEntry, ScriptedBackend
from apio.metrics.levenshtein import min_ref_levenshtein, word_levenshtein
from apio.optimizer import Candidate, PromptOptimizer, rank_key, select_dev_subsample
from apio.prompts import (
    GENERIC_TEMPLATE,
    Instruction,
    Prompt,
    PromptError,
    clean_completion,
    improve_meta_prompt,
    parse_new_instruction,
    postprocess_output,
    rephrase_meta_prompt,
)
from apio.seeding import derived_rng
from conftest import SEQUENTIAL, RecordingBackend

SEED = 11

# -- the reference -------------------------------------------------------------


def score(backend: Backend, prompt: Prompt, pairs: list[SamplePair], step: int) -> list[tuple[str, str, int]]:
    """(output, nearest reference, word distance) per pair. Every request is
    sent before the first failure is raised; an empty source sends none."""
    rows, failures = [], []
    for pair in pairs:
        output = ""
        if pair.source:
            try:
                request = ChatRequest(prompt.render(pair.source), INFER, purpose="score", step=step)
                output = postprocess_output(backend.complete(request))
            except GatewayError as exc:
                failures.append(exc)
                continue
        error, nearest = min_ref_levenshtein(output, pair.references)
        rows.append((output, pair.references[nearest], error))
    if failures:
        raise failures[0]
    return rows


def improve_children(engine: PromptOptimizer, backend: Backend, parent: Candidate, epoch: int) -> list[Prompt]:
    """The parent's seeded train window is scored, and its improve_batch
    worst rows, in window order, make the meta prompt that every sample
    sends. A failed window drops them all, a failed sample its own child."""
    cfg, train = engine.cfg, engine.train
    rng = derived_rng(SEED, "improve-batch", epoch, parent.id)
    window = [train[i] for i in rng.sample(range(len(train)), min(len(train), 2 * cfg.improve_batch))]
    try:
        rows = score(backend, parent.prompt, window, epoch)
    except GatewayError:
        return []
    worst = sorted(sorted(range(len(window)), key=lambda i: -rows[i][2])[: cfg.improve_batch])
    meta = improve_meta_prompt(GENERIC_TEMPLATE, list(parent.prompt.instructions),
                               [(window[i].source, *rows[i]) for i in worst])
    children = []
    for s in range(cfg.improve_samples):
        request = ChatRequest(meta, EXPLORE, attempt_tag=epoch * cfg.improve_samples + s, purpose="improve", step=epoch)
        try:
            children.append(parent.prompt.append_instruction(parse_new_instruction(backend.complete(request))))
        except (GatewayError, PromptError):
            pass
    return children


def reference_epoch(engine: PromptOptimizer, backend: Backend, pool: list[Candidate], epoch: int, next_id: int):
    """(new pool, history record, next id) of one epoch, one request at a time."""
    cfg = engine.cfg
    parents = sorted(pool, key=lambda c: c.id)
    improved = {parent.id: improve_children(engine, backend, parent, epoch) for parent in parents}
    rephrased = {}  # one request per distinct instruction; a failure drops it everywhere
    for instruction in dict.fromkeys(i for parent in parents for i in parent.prompt.instructions):
        request = ChatRequest(rephrase_meta_prompt(instruction), EXPLORE, attempt_tag=epoch, purpose="rephrase",
                              step=epoch)
        try:
            rephrased[instruction] = Instruction(clean_completion(backend.complete(request)))
        except (GatewayError, PromptError):
            pass
    pool_texts = {c.prompt.text() for c in pool}
    proposals: dict[str, tuple[str, Prompt, Candidate]] = {}
    for parent in parents:
        children = [("improve", child) for child in improved[parent.id]]
        children += [("rephrase", parent.prompt.replace_instruction(i, rephrased[instruction]))
                     for i, instruction in enumerate(parent.prompt.instructions) if instruction in rephrased]
        permuted = engine.permute(parent, epoch)
        children += [] if permuted is None else [("permute", permuted)]
        for op, child in children:
            if child.text() not in pool_texts:
                proposals.setdefault(child.text(), (op, child, parent))
    scored = []
    for op, child, parent in proposals.values():
        try:
            rows = score(backend, child, select_dev_subsample(engine.dev, cfg, SEED), epoch)
        except GatewayError:
            continue
        raw = sum(error for *_, error in rows) / len(rows)
        parent_text = parent.prompt.text()
        drift = word_levenshtein(child.text(), parent_text) / max(1, len(parent_text.split()))
        scored.append(Candidate(next_id, child, -raw - cfg.drift_weight * drift, raw, drift, parent.id, op, epoch))
        next_id += 1
    new_pool = sorted(pool + scored, key=rank_key)[: cfg.beam_b]
    record = {
        "epoch": epoch,
        "candidates": to_object(scored),
        "pool": [c.id for c in new_pool],
        "best_fitness": new_pool[0].fitness,
        "best_id": new_pool[0].id,
        "backend_calls": sum(backend.calls[p, epoch] for p in ("score", "improve", "rephrase")),
    }
    return new_pool, record, next_id


# -- drawn cases ---------------------------------------------------------------

FOOTER = GENERIC_TEMPLATE.footer
RULES = ['Replace "foo" with "bar".', 'Replace "bar" with "baz".', 'Replace "baz" with "foo".',
         'Replace "qux" with "qux".', "Keep every word."]
TRAIN = [SamplePair(f"t{i}", source, (reference,)) for i, (source, reference) in enumerate(
    [("foo bar", "bar bar"), ("baz qux foo", "foo qux bar"), ("qux", "qux"), ("bar baz", "baz foo"),
     ("foo foo qux", "bar bar qux")])]
DEV = [SamplePair(f"d{i}", source, references) for i, (source, references) in enumerate(
    [("foo qux", ("bar qux",)), ("baz", ("foo", "baz")), ("", ("x",)), ("bar foo bar", ("baz bar baz",)),
     ("qux foo", ("qux bar",)), ("foo", ("bar",))])]
IMPROVE_ANSWERS = [*(f"<new_instruction>{rule}</new_instruction>" for rule in RULES), "no tag here",
                   '<new_instruction>""</new_instruction>', "<new_instruction>Fix\nthe spacing.</new_instruction>"]
# requests that match no entry fail; "\nInput: ..." matches only scoring requests
INFER_ENTRIES = [
    ScriptEntry("\nOutput:", mode="rewrite_rules"), ScriptEntry("\nInput: foo", mode="rewrite_rules"),
    ScriptEntry("\nInput: baz", response="baz\nfoo"), ScriptEntry("\nInput: qux", response="qux bar\n\nwhy"),
]


@st.composite
def cases(draw):
    cfg = OptimizerConfig(
        beam_b=draw(st.integers(1, 6)), n_permute=draw(st.integers(2, 4)),
        drift_weight=draw(st.sampled_from([0.0, 0.05, 0.5])), improve_samples=draw(st.integers(1, 4)),
        improve_batch=draw(st.integers(1, 3)), dev_subsample=draw(st.none() | st.integers(1, len(DEV))),
    )
    instruction_lists = draw(st.lists(st.lists(st.sampled_from(RULES), min_size=1, max_size=4),
                                      min_size=1, max_size=4, unique_by=tuple))
    pool = [Candidate(i, Prompt("", tuple(instructions), FOOTER), draw(st.sampled_from([-2.0, -1.0, -0.5])),
                      0.0, 0.0, None, "init", 0) for i, instructions in enumerate(instruction_lists)]
    tags = st.none() | st.integers(0, 15)
    improves = draw(st.lists(st.builds(ScriptEntry, st.just("Suggest new instruction"),
                                       st.sampled_from(IMPROVE_ANSWERS), attempt_tag=tags), max_size=4))
    rephrases = draw(st.lists(st.builds(
        ScriptEntry, st.sampled_from(["Generate a variation", 'Instruction:Replace "foo"', "Instruction:Keep"]),
        st.sampled_from([*RULES, "", "Instruction: Keep every word."]),
        mode=st.sampled_from(["literal", "echo_instruction"]), attempt_tag=st.none() | st.integers(1, 3),
    ), max_size=3))
    infers = draw(st.lists(st.sampled_from(INFER_ENTRIES), min_size=1, unique=True))
    return cfg, pool, [*improves, *rephrases, *infers], draw(st.integers(2, 3))


def requests(backend: RecordingBackend) -> Counter:
    return Counter((r.purpose, r.step, r.content, r.attempt_tag) for r in backend.requests)


def run_engine(cfg, pool, script, n_epochs, executor: Executor):
    backend = RecordingBackend(ScriptedBackend(script))
    engine = PromptOptimizer(TRAIN, DEV, cfg, SEED, backend, GENERIC_TEMPLATE, executor)
    engine.next_id = len(pool)
    pools = []
    for epoch in range(1, n_epochs + 1):
        pool = engine.run_epoch(pool, epoch)
        pools.append(pool)
    return engine.history, pools, requests(backend)


def run_reference(cfg, pool, script, n_epochs):
    backend = RecordingBackend(ScriptedBackend(script))
    engine = PromptOptimizer(TRAIN, DEV, cfg, SEED, backend, GENERIC_TEMPLATE, SEQUENTIAL)  # for permute only
    history, pools, next_id = [], [], len(pool)
    for epoch in range(1, n_epochs + 1):
        pool, record, next_id = reference_epoch(engine, backend, pool, epoch, next_id)
        history.append(record)
        pools.append(pool)
    return history, pools, requests(backend)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cases())
def test_run_epoch_matches_the_reference_epoch(case):
    expected = run_reference(*case)
    with ThreadPoolExecutor(max_workers=2) as two, ThreadPoolExecutor(max_workers=8) as eight:
        for executor in (SEQUENTIAL, two, eight):
            assert run_engine(*case, executor) == expected
