from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apio.corpus import M2Edit, M2Record
from apio.metrics.gec import (
    apply_edit_set,
    extract_edits,
    f05_from_counts,
    f05_with_counts,
    sentence_counts,
)


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


TOKENS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


@given(TOKENS, TOKENS)
def test_round_trip(src, hyp):
    source, hypothesis = " ".join(src), " ".join(hyp)
    edits = extract_edits(source, hypothesis)
    assert apply_edit_set(source, edits) == hypothesis


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


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        f05_with_counts([_record("a b", (0, 1, "x", 0))], [])
