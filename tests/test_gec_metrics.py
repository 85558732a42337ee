from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apio.corpus import M2Edit, M2Record, apply_edits, load_m2
from apio.metrics.gec import (
    Edit,
    extract_edits,
    f05_from_counts,
    f05_with_counts,
    sentence_counts,
)
from m2gen import VOCAB, random_record


def test_single_substitution_span():
    assert set(extract_edits("She go home", "She goes home")) == {(1, 2, "goes")}


def test_identity_is_empty():
    assert len(extract_edits("a b c", "a b c")) == 0
    assert len(extract_edits("", "")) == 0


def test_adjacent_ops_merge():
    # one substitution plus one insertion collapse into a single edit,
    # confirmed on the alignment table by hand
    assert set(extract_edits("a b c", "a x y c")) == {(1, 2, "x y")}


def test_pure_insertion_and_deletion():
    assert set(extract_edits("a c", "a b c")) == {(1, 1, "b")}
    assert set(extract_edits("a b c", "a c")) == {(1, 2, "")}


def apply_edit_set(source: str, edits: frozenset[Edit]) -> str:
    """Apply extracted edits back onto the source: the round-trip oracle
    for ``extract_edits``."""
    tokens = source.split()
    for start, end, correction in sorted(edits, reverse=True):
        tokens[start:end] = correction.split()
    return " ".join(tokens)


TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


@given(TOKENS, TOKENS)
def test_round_trip(src, hyp):
    source, hypothesis = " ".join(src), " ".join(hyp)
    edits = extract_edits(source, hypothesis)
    assert apply_edit_set(source, edits) == hypothesis


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def test_extract_edits_pinned_on_every_short_pair():
    # the round trip holds for any minimum-cost alignment; this pins which
    # one is chosen on cost ties, over all 40 x 40 sequences of 0-3 tokens
    # from {a, b, c}
    texts = [" ".join(t) for n in range(4) for t in itertools.product("abc", repeat=n)]
    results = [(s, h, sorted(extract_edits(s, h))) for s in texts for h in texts]
    assert len(results) == 1600
    assert _sha256(results) == "b60f997156737cbc97eef3bd4663334407fc09a5b9963223b38115b8d159d515"


def test_sentence_counts_pinned_on_random_records():
    # hypotheses are an annotator's reference, the source, or random tokens,
    # so hits, misses and ties in F0.5 between annotators all occur
    rng = random.Random(0)
    counts = []
    for _ in range(2000):
        record = random_record(rng)
        hypotheses = [
            apply_edits(record, rng.choice(record.annotator_ids())),
            record.source_text(),
            " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 12))),
        ]
        counts.extend(sentence_counts(record, h) for h in hypotheses)
    assert _sha256(counts) == "cc90206baa89e367e500c8dee4f33ef768d1b6a60cb01d18eb4b6599366c5bdd"


def test_f05_formula_values():
    # P = 2/3, R = 2/3 -> F0.5 = 2/3
    assert f05_from_counts(2, 1, 1) == pytest.approx(2 / 3, abs=1e-12)
    # P = 2/3, R = 1/2 -> F0.5 = 0.625
    assert f05_from_counts(2, 1, 2) == pytest.approx(0.625, abs=1e-12)
    assert f05_from_counts(0, 0, 5) == 0.0
    assert f05_from_counts(0, 3, 0) == 0.0
    assert f05_from_counts(4, 0, 0) == 1.0


def _record(tokens: str, *edits: tuple[int, int, str, int]) -> M2Record:
    return M2Record(
        tuple(tokens.split()),
        tuple(M2Edit(s, e, "R:X", c, a) for s, e, c, a in edits),
    )


def test_toy_corpus_known_counts():
    records = [
        _record("a b c", (1, 2, "x", 0)),
        _record("d e f", (0, 1, "D", 0)),
        _record("g h", (0, 1, "G", 0)),
    ]
    hyps = ["a x c", "D e f", "g h h"]  # two exact hits, one spurious insert
    score, counts = f05_with_counts(records, hyps)
    assert counts == [(1, 0, 0), (1, 0, 0), (0, 1, 1)]
    assert score == pytest.approx(2 / 3, abs=1e-12)


def test_copy_scores_zero():
    records = [_record("a b c", (1, 2, "x", 0)), _record("d e", (0, 1, "D", 0))]
    assert f05_with_counts(records, ["a b c", "d e"])[0] == 0.0


def test_perfect_single_annotator_scores_one():
    records = [
        _record("a b c", (1, 2, "x", 0)),
        _record("d e f", (0, 1, "D", 0), (2, 3, "F", 0)),
    ]
    assert f05_with_counts(records, ["a x c", "D e F"])[0] == 1.0


def test_best_annotator_chosen_per_sentence():
    record = _record("a b c", (1, 2, "x", 0), (1, 2, "y", 1))
    assert sentence_counts(record, "a y c") == (1, 0, 0)
    assert sentence_counts(record, "a x c") == (1, 0, 0)


def test_noop_annotator_preferred_when_hypothesis_is_source():
    record = M2Record(
        ("a", "b", "c"),
        (M2Edit(1, 2, "R:X", "x", 0),),
        frozenset({1}),
    )
    # annotator 1 says the source is already correct; copying it should
    # contribute nothing rather than false negatives
    assert sentence_counts(record, "a b c") == (0, 0, 0)


@pytest.mark.parametrize(
    ("correction", "hypothesis"),
    [("sits  down", "The cat sits down"), (" sits down", "The cat sits down"),
     ("sits\tdown ", "The cat sits down"), (" -NONE- ", "The cat")],
)
def test_gold_correction_is_compared_by_its_tokens(tmp_path, correction, hypothesis):
    # the reader joins a correction's tokens by single spaces, as the scorer
    # joins the hypothesis tokens it compares them with
    path = tmp_path / "g.m2"
    path.write_text(f"S The cat sat\nA 2 3|||R:VERB|||{correction}|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    [record] = load_m2(path)
    assert sentence_counts(record, hypothesis) == (1, 0, 0)


def test_adjacent_gold_edits_do_not_match_one_merged_edit():
    # a known limit of exact-span matching: the gold corrections score zero
    # when the gold splits one contiguous change into adjacent edits
    record = _record("the cat", (0, 1, "a", 0), (1, 2, "dog", 0))
    assert sentence_counts(record, "a dog") == (0, 1, 2)
    assert f05_with_counts([record], ["a dog"])[0] == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        f05_with_counts([_record("a b", (0, 1, "x", 0))], [])
