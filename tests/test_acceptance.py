"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion (printed by the conftest report hook).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from pathlib import Path

import pytest

from apio.cli import main
from apio.config import InductionConfig, OptimizerConfig
from apio.corpus import load_asset, load_m2
from apio.gateway import ScriptEntry, ScriptedBackend
from apio.induction import best_of_trials
from apio.metrics.levenshtein import pairwise_word_levenshtein, word_levenshtein
from apio.metrics.sari import sari
from apio.optimizer import Candidate, PromptOptimizer
from apio.prompts import GEC_TEMPLATE, GENERIC_TEMPLATE, Instruction, Prompt
from conftest import SEQUENTIAL
from m2gen import random_record, serialize_m2
from toytask import DECOY, PLANTED, make_workspace, script_entries

pytestmark = pytest.mark.acceptance


def criterion(label):
    def wrap(fn):
        fn._criterion = label
        return fn
    return wrap


# ---------------------------------------------------------------------------
# 1. Levenshtein metric oracle
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _recursive_distance(a: tuple, b: tuple) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        _recursive_distance(a[1:], b[1:]) + (a[0] != b[0]),
        _recursive_distance(a[1:], b) + 1,
        _recursive_distance(a, b[1:]) + 1,
    )


def _recursive_table(seqs: list[tuple]) -> list[list[int]]:
    """``_recursive_distance`` over all pairs of ``seqs``, which must be
    sorted by length and closed under dropping the first element.

    Every subproblem of the recursion is a pair of suffixes, so it is
    evaluated bottom-up in place of memoized calls: row ``a`` reads the
    rows of ``a[1:]``, which come earlier.
    """
    index = {s: i for i, s in enumerate(seqs)}
    tail = [index[s[1:]] if s else -1 for s in seqs]
    table: list[list[int]] = []
    for a_idx, a in enumerate(seqs):
        if not a:
            table.append([len(b) for b in seqs])
            continue
        head, rest = a[0], table[tail[a_idx]]
        row = [len(a)]
        for b_idx in range(1, len(seqs)):
            b_tail = tail[b_idx]
            row.append(min(
                rest[b_tail] + (head != seqs[b_idx][0]),
                rest[b_idx] + 1,
                row[b_tail] + 1,
            ))
        table.append(row)
    return table


@criterion("C1 levenshtein-oracle")
def test_c1_levenshtein_property_suite_and_exhaustive_oracle():
    start = time.monotonic()

    # property suite: >= 10,000 random token-sequence pairs
    rng = random.Random(0)
    vocab = ["w%d" % i for i in range(12)]
    texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 10))) for _ in range(200)]
    matrix = pairwise_word_levenshtein(texts, texts)
    n = len(texts)
    assert n * n >= 10_000
    for i in range(n):
        for j in range(n):
            assert matrix[i][j] == matrix[j][i]  # symmetry over all 40,000 pairs
            assert (matrix[i][j] == 0) == (texts[i] == texts[j])
    triples = random.Random(1)
    for _ in range(10_000):
        i, j, k = (triples.randrange(n) for _ in range(3))
        assert matrix[i][k] <= matrix[i][j] + matrix[j][k]  # triangle

    # exhaustive: all pairs of sequences with length <= 6 over a 3-token
    # alphabet, against the brute-force recursive oracle
    seqs = [s for m in range(7) for s in itertools.product(range(3), repeat=m)]
    assert len(seqs) == 1093
    texts = [" ".join(map(str, s)) for s in seqs]
    assert pairwise_word_levenshtein(texts, texts) == _recursive_table(seqs)

    # spot-check the public API against the same oracle
    spot = random.Random(2)
    for _ in range(2_000):
        a = tuple(spot.choices(range(3), k=spot.randint(0, 6)))
        b = tuple(spot.choices(range(3), k=spot.randint(0, 6)))
        sa, sb = " ".join(map(str, a)), " ".join(map(str, b))
        assert word_levenshtein(sa, sb) == _recursive_distance(a, b)

    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 2. SARI anchor
# ---------------------------------------------------------------------------

SARI_ORACLE_TRIPLES = [
    ("the cat sat", "the cat sat", ["the cat sat"], 25.0),
    ("a b c d", "a b c d", ["a b c d"], 100.0 / 3.0),
    ("the big cat", "the cat", ["the cat"], 125.0 / 3.0),
    ("the cat", "the black cat", ["the black cat"], 125.0 / 3.0),
    ("the cat", "the cat", ["the black cat"], 25.0 / 3.0),
    ("a b", "a b", ["a b", "a c"], 800.0 / 63.0),
    ("he is a good boy", "he is good", ["he is good", "he is a fine boy"], 35675.0 / 774.0),
]


@criterion("C2 sari-copy-anchor")
def test_c2_sari_anchor(tmp_path):
    start = time.monotonic()
    asset_dir = os.environ.get("APIO_ASSET_DIR")
    if asset_dir:
        source = Path(asset_dir) / "asset.test.orig"
        refs = sorted(Path(asset_dir).glob("asset.test.simp.*"))
        if source.exists() and refs:
            out = tmp_path / "copy.txt"
            assert main(["baseline", "--kind", "copy", "--input", str(source), "--output", str(out)]) == 0
            report_path = tmp_path / "sari.json"
            assert main(
                ["evaluate", "--task", "simplify", "--predictions", str(out),
                 "--source", str(source), "--references", *map(str, refs),
                 "--output", str(report_path)]
            ) == 0
            report = json.loads(report_path.read_text(encoding="utf-8"))
            assert report["n"] == 359
            assert abs(report["aggregate"] - 20.70) <= 0.30
            assert time.monotonic() - start < 30.0
            return
    # offline fallback: exact agreement with the pre-registered hand oracle
    for source, output, references, expected in SARI_ORACLE_TRIPLES:
        assert sari(source, output, references) == pytest.approx(expected, abs=1e-9)
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 3. GEC copy anchor
# ---------------------------------------------------------------------------


@criterion("C3 gec-copy-anchor")
def test_c3_gec_copy_baseline_zero(tmp_path):
    start = time.monotonic()
    rng = random.Random(31)
    records = []
    while len(records) < 100:
        record = random_record(rng)
        if record.edits:
            records.append(record)
    gold = tmp_path / "gold.m2"
    gold.write_text("\n".join(serialize_m2(r) for r in records), encoding="utf-8")
    predictions = tmp_path / "copy.txt"
    predictions.write_text("".join(r.source_text() + "\n" for r in records), encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--task", "gec", "--predictions", str(predictions),
                 "--m2", str(gold), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["metric"] == "f05-approx"
    assert report["aggregate"] == 0.0
    assert report["n"] == 100
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 4. prompt rendering golden test
# ---------------------------------------------------------------------------

KNOWN_GEC_INSTRUCTIONS = (
    "Identify and correct the grammatical error in the given sentence to improve clarity and accuracy.",
    "Generate a corrected version of the given sentence by identifying and fixing any grammatical errors while maintaining the original meaning.",
    "Given a sentence with grammatical errors, identify and correct the mistakes to produce a grammatically accurate version of the sentence.",
)


@criterion("C4 prompt-render-golden")
def test_c4_render_golden_bytes():
    prompt = Prompt(
        header="",
        instructions=tuple(Instruction(t) for t in KNOWN_GEC_INSTRUCTIONS),
        footer=GEC_TEMPLATE.footer,
    )
    golden = (Path(__file__).parent / "data" / "golden_gec_render.txt").read_bytes()
    assert prompt.render("She go home").encode("utf-8") == golden


# ---------------------------------------------------------------------------
# 5. optimizer determinism + elitism
# ---------------------------------------------------------------------------


def _toy_dev():
    rows = [
        ("the foo is big", "the bar is big"),
        ("a foo in a box", "a bar in a box"),
        ("foo here now", "bar here now"),
        ("one foo two foo", "one bar two bar"),
        ("my foo likes tea", "my bar likes tea"),
        ("this foo that foo", "this bar that bar"),
        ("foo goes home", "bar goes home"),
        ("every foo counts", "every bar counts"),
    ]
    from apio.corpus import SamplePair

    return [SamplePair(f"toy-{i}", s, (r,)) for i, (s, r) in enumerate(rows)]


def _random_script(rng: random.Random) -> ScriptedBackend:
    markers = ["foo", "big", "tea", "home"]
    entries = []
    for _ in range(rng.randint(4, 9)):
        old = rng.choice(markers)
        new = rng.choice(["bar", "qux", old, "zz"])
        entries.append(
            ScriptEntry(
                match="Suggest new instruction",
                response=f'<new_instruction>Replace "{old}" with "{new}".</new_instruction>',
            )
        )
    entries.append(
        ScriptEntry(match="Suggest new instruction",
                    response='<new_instruction>Replace "pad" with "pad".</new_instruction>',
                    sticky=True)
    )
    entries.append(ScriptEntry(match="Generate a variation", mode="echo_instruction", sticky=True))
    entries.append(ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True))
    return ScriptedBackend(entries)


@criterion("C5 determinism-and-elitism")
def test_c5_determinism_and_elitism(tmp_path, no_network):
    start = time.monotonic()

    # determinism: one scripted run (seed fixed, 15 epochs, B=32) twice
    histories = []
    for side in ("left", "right"):
        paths = make_workspace(tmp_path / side, n_epochs=15, beam_b=32, seed=42)
        args = ["--config", str(paths["config"]), "--run-id", "det", "--runs-dir",
                str(paths["runs"]), "--script", str(paths["script"])]
        assert main(["induce", *args]) == 0
        assert main(["optimize", *args]) == 0
        histories.append((paths["runs"] / "det" / "history.json").read_bytes())
        epochs = json.loads(histories[-1])["epochs"]
        assert len(epochs) == 15
    assert histories[0] == histories[1]

    # elitism: best-pool fitness non-decreasing in 100 randomized runs
    dev = _toy_dev()
    seed_prompt = Prompt("", (Instruction(DECOY), Instruction('Replace "a" with "a".')),
                         GENERIC_TEMPLATE.footer)
    for run_idx in range(100):
        rng = random.Random(run_idx)
        cfg = OptimizerConfig(
            n_epochs=3, beam_b=6, improve_samples=2, improve_batch=2,
            dev_subsample=None, seed=run_idx,
        )
        engine = PromptOptimizer(dev[:4], dev, cfg, _random_script(rng), GENERIC_TEMPLATE, SEQUENTIAL)
        pool = [engine.score_seed(seed_prompt)]
        for epoch in range(1, cfg.n_epochs + 1):
            pool = engine.run_epoch(pool, epoch)
        best_series = [entry["best_fitness"] for entry in engine.history]
        assert best_series == sorted(best_series)
    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. operator contracts on fuzzed parents
# ---------------------------------------------------------------------------


@criterion("C6 operator-contracts")
def test_c6_operator_contracts_fuzz():
    dev = _toy_dev()
    entries = [
        ScriptEntry(match="Suggest new instruction",
                    response="<new_instruction>Brand new instruction.</new_instruction>",
                    sticky=True),
        ScriptEntry(match="Generate a variation", response="A different phrasing entirely.",
                    sticky=True),
        ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True),
    ]
    cfg = OptimizerConfig(n_epochs=1, beam_b=8, improve_samples=1, improve_batch=2,
                          dev_subsample=4, seed=0)
    engine = PromptOptimizer(dev[:4], dev, cfg, ScriptedBackend(entries), GENERIC_TEMPLATE, SEQUENTIAL)
    rng = random.Random(6)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for parent_idx in range(1000):
        texts = [
            f"Rule {pos} {rng.choice(vocab)} {rng.randint(0, 99)}."
            for pos in range(rng.randint(2, 6))
        ]
        prompt = Prompt("", tuple(Instruction(t) for t in texts), GENERIC_TEMPLATE.footer)
        parent = Candidate(parent_idx, prompt, 0.0, 0.0, 0.0, None, "init", 0)

        improved = engine.improve(parent, epoch=1)
        assert improved, "sticky improve script must always parse"
        for child in improved:
            assert len(child.instructions) == len(prompt.instructions) + 1
            assert child.instruction_texts()[:-1] == texts

        for child in engine.rephrase(parent, epoch=1):
            diffs = [
                i for i, (a, b) in enumerate(zip(texts, child.instruction_texts())) if a != b
            ]
            assert len(diffs) == 1

        permuted = engine.permute(parent, epoch=parent_idx)
        assert sorted(permuted.instruction_texts()) == sorted(texts)
        assert permuted.instruction_texts() != texts

    # duplicate instruction texts: the position permutation may be invisible
    # at text level, but the multiset contract still holds
    twin = Prompt("", (Instruction("Same rule."), Instruction("Same rule.")), GENERIC_TEMPLATE.footer)
    twin_parent = Candidate(10_000, twin, 0.0, 0.0, 0.0, None, "init", 0)
    permuted = engine.permute(twin_parent, epoch=0)
    assert sorted(permuted.instruction_texts()) == ["Same rule.", "Same rule."]

    # pool invariants after truncation, over a multi-epoch scripted run
    paths_entries = [ScriptEntry(**e) for e in script_entries()]
    pool_cfg = OptimizerConfig(n_epochs=4, beam_b=5, improve_samples=3, improve_batch=2,
                               dev_subsample=None, seed=3)
    engine2 = PromptOptimizer(
        dev[:4], dev, pool_cfg, ScriptedBackend(paths_entries), GENERIC_TEMPLATE, SEQUENTIAL
    )
    pool = [engine2.score_seed(Prompt("", (Instruction(DECOY), Instruction('Replace "b" with "b".')), GENERIC_TEMPLATE.footer))]
    for epoch in range(1, 5):
        pool = engine2.run_epoch(pool, epoch)
        texts = [c.prompt.text() for c in pool]
        assert len(set(texts)) == len(texts)
        assert len(pool) <= pool_cfg.beam_b


# ---------------------------------------------------------------------------
# 7. end-to-end planted optimum (E2E-1)
# ---------------------------------------------------------------------------


def _run_e2e(paths, run_id, extra=(), runs_dir=None) -> None:
    args = ["--config", str(paths["config"]), "--run-id", run_id, "--runs-dir",
            str(runs_dir or paths["runs"]), "--script", str(paths["script"])]
    assert main(["induce", *args]) == 0
    assert main(["optimize", *args, *extra]) == 0


@criterion("C7 e2e-planted-optimum")
def test_c7_end_to_end_planted_optimum(tmp_path, no_network):
    paths = make_workspace(tmp_path, n_epochs=15, beam_b=32, seed=7)
    start = time.monotonic()
    _run_e2e(paths, "e2e")
    elapsed = time.monotonic() - start
    run = paths["runs"] / "e2e"
    report = json.loads((run / "final_report.json").read_text(encoding="utf-8"))
    assert report["best_raw_error_full_dev"] == 0.0
    best_prompt = (run / "best_prompt.txt").read_text(encoding="utf-8")
    assert PLANTED in best_prompt
    # planted instruction is offered within epoch 1's improve samples
    history = json.loads((run / "history.json").read_text(encoding="utf-8"))["epochs"]
    first_zero = next(e["epoch"] for e in history
                      if any(c["raw_error"] == 0.0 for c in e["candidates"]))
    assert first_zero <= 3
    assert no_network["n"] == 0
    assert elapsed < 5.0, f"end-to-end run took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 8. resume equivalence
# ---------------------------------------------------------------------------


@criterion("C8 resume-equivalence")
def test_c8_resume_equivalence(tmp_path):
    # one workspace (same config/script/data paths), two runs-dir roots
    paths = make_workspace(tmp_path, n_epochs=15, beam_b=32, seed=7)
    full_runs = tmp_path / "runs_full"
    cut_runs = tmp_path / "runs_cut"
    _run_e2e(paths, "e2e", runs_dir=full_runs)
    _run_e2e(paths, "e2e", extra=("--stop-after-epoch", "7"), runs_dir=cut_runs)
    state = json.loads((cut_runs / "e2e" / "state.json").read_text(encoding="utf-8"))
    assert state["epoch"] == 7
    assert main(["optimize", "--resume", "e2e", "--runs-dir", str(cut_runs)]) == 0
    for name in ("state.json", "history.json", "best_prompt.txt", "final_report.json"):
        a = (full_runs / "e2e" / name).read_bytes()
        b = (cut_runs / "e2e" / name).read_bytes()
        assert a == b, f"{name} differs between uninterrupted and resumed runs"


# ---------------------------------------------------------------------------
# 9. induction accounting
# ---------------------------------------------------------------------------


@criterion("C9 induction-accounting")
def test_c9_induction_call_accounting():
    dev = _toy_dev()
    backend = ScriptedBackend(
        [
            ScriptEntry(match="Could you give an instruction", response="Do the rewrite.",
                        sticky=True),
            ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True),
        ]
    )
    cfg = InductionConfig(n_instructions=3, n_trials=10, seed=4)
    dev_evaluations = []

    def fitness_fn(prompt, pairs, via):
        dev_evaluations.append(prompt)
        return lambda: 0.0

    best_of_trials(dev, dev, cfg, GENERIC_TEMPLATE, backend, fitness_fn)
    assert backend.n_calls == 30  # every request is an induction: fitness_fn sends none
    assert len(dev_evaluations) == 10


# ---------------------------------------------------------------------------
# 10. parser round-trips
# ---------------------------------------------------------------------------


@criterion("C10 parser-round-trip")
def test_c10_parser_round_trips(tmp_path):
    rng = random.Random(1234)
    records = [random_record(rng) for _ in range(1000)]
    path = tmp_path / "fuzz.m2"
    path.write_text("\n".join(serialize_m2(r) for r in records), encoding="utf-8")
    assert load_m2(path) == records

    for n in (1, 13, 359):
        source = tmp_path / f"src{n}.txt"
        ref_a = tmp_path / f"ra{n}.txt"
        ref_b = tmp_path / f"rb{n}.txt"
        source.write_text("".join(f"line {i}\n" for i in range(n)), encoding="utf-8")
        ref_a.write_text("".join(f"ref a {i}\n" for i in range(n)), encoding="utf-8")
        ref_b.write_text("".join(f"ref b {i}\n" for i in range(n)), encoding="utf-8")
        pairs = load_asset(source, [ref_a, ref_b])
        assert len(pairs) == n
