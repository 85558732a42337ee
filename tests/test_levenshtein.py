from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apio.metrics.levenshtein import _distance, _match_masks, alignment_table, min_ref_levenshtein, word_levenshtein

TOKENS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=6)


def pairwise_word_levenshtein(texts_a: list[str], texts_b: list[str]) -> list[list[int]]:
    """All-pairs distances from the bit-parallel kernel, each pattern's
    match masks built once: ``out[i][j]`` is the distance from
    ``texts_a[i]`` to ``texts_b[j]``. C1 checks it over every pair of
    short sequences against a brute-force table."""
    tok_b = [t.split() for t in texts_b]
    out = []
    for text in texts_a:
        pattern = text.split()
        masks, m = _match_masks(pattern), len(pattern)
        out.append([_distance(masks, m, tokens) for tokens in tok_b])
    return out


@functools.lru_cache(maxsize=None)
def brute_force(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Naive recursive edit distance, the independent oracle."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        brute_force(a[1:], b[1:]) + (a[0] != b[0]),
        brute_force(a[1:], b) + 1,
        brute_force(a, b[1:]) + 1,
    )


def test_identity():
    assert word_levenshtein("the cat sat", "the cat sat") == 0


def test_mixed_edit():
    # sub b->x plus delete d, checked against a hand DP table
    assert word_levenshtein("a b c d", "a x c") == 2


def test_empty_side():
    assert word_levenshtein("", "a b") == 2
    assert word_levenshtein("a b", "") == 2
    assert word_levenshtein("", "") == 0


@given(TOKENS, TOKENS)
def test_matches_brute_force(a, b):
    assert word_levenshtein(" ".join(a), " ".join(b)) == brute_force(tuple(a), tuple(b))


@given(TOKENS, TOKENS)
def test_symmetry(a, b):
    assert word_levenshtein(" ".join(a), " ".join(b)) == word_levenshtein(" ".join(b), " ".join(a))


@given(TOKENS, TOKENS, TOKENS)
@settings(max_examples=200)
def test_triangle_inequality(a, b, c):
    sa, sb, sc = " ".join(a), " ".join(b), " ".join(c)
    assert word_levenshtein(sa, sc) <= word_levenshtein(sa, sb) + word_levenshtein(sb, sc)


@given(TOKENS, TOKENS)
def test_identity_of_indiscernibles(a, b):
    d = word_levenshtein(" ".join(a), " ".join(b))
    assert (d == 0) == (a == b)


def test_min_ref_examples():
    assert min_ref_levenshtein("a b c", ["x y", "a b c", "q"]) == (0, 1)
    # two hand DP tables: d(output, "a b") = 2, d(output, "a b c") = 1
    assert min_ref_levenshtein("a b c d", ["a b", "a b c"]) == (1, 1)
    assert min_ref_levenshtein("a b", ["x y"]) == (word_levenshtein("a b", "x y"), 0)
    # every reference is one edit away: the tie goes to the first
    assert min_ref_levenshtein("a b", ["a c", "x b", "a b c"]) == (1, 0)


def test_min_ref_rejects_empty():
    with pytest.raises(ValueError):
        min_ref_levenshtein("a", [])


def test_pairwise_matches_scalar():
    rng = random.Random(0)
    texts_a = [" ".join(rng.choices("abcde", k=rng.randint(0, 7))) for _ in range(12)]
    texts_b = [" ".join(rng.choices("abcde", k=rng.randint(0, 7))) for _ in range(9)]
    matrix = pairwise_word_levenshtein(texts_a, texts_b)
    for i, ta in enumerate(texts_a):
        for j, tb in enumerate(texts_b):
            assert matrix[i][j] == word_levenshtein(ta, tb)


def test_alignment_table_boundaries():
    table = alignment_table(["a", "b"], ["a", "x", "b"])
    assert table[0][0] == 0
    assert table[2][3] == 1
    assert table[0] == [0, 1, 2, 3]
    assert [row[0] for row in table] == [0, 1, 2]


@given(
    st.lists(st.sampled_from("abcd"), max_size=90),
    st.lists(st.lists(st.sampled_from("abcd"), max_size=90), min_size=1, max_size=3),
)
@settings(max_examples=150)
def test_long_sequences_match_dp_table(output, references):
    # patterns longer than one machine word; the DP table is the reference
    expected = [alignment_table(output, ref)[-1][-1] for ref in references]
    texts = [" ".join(ref) for ref in references]
    assert [word_levenshtein(" ".join(output), t) for t in texts] == expected
    assert min_ref_levenshtein(" ".join(output), texts) == min((d, i) for i, d in enumerate(expected))
    assert pairwise_word_levenshtein([" ".join(output)], texts) == [expected]


def test_alignment_table_matches_brute_force():
    rng = random.Random(42)
    for _ in range(60):
        a = tuple(rng.choices("abcd", k=rng.randint(0, 7)))
        b = tuple(rng.choices("abcd", k=rng.randint(0, 7)))
        assert alignment_table(a, b)[len(a)][len(b)] == brute_force(a, b)
