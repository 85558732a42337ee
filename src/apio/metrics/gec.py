"""Edit-overlap scoring for grammatical error correction.

Hypothesis edits are recovered by token-level Levenshtein alignment of
source against hypothesis, with adjacent non-match operations merged
into maximal contiguous edits. Scoring matches hypothesis edits against
gold edit spans by exact (start, end, correction) identity, ignoring the
gold error-type labels; no linguistic merging or classification is
attempted, so reports label the score ``f05-approx``.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..corpus import M2Record
from .levenshtein import alignment_table

# a token-span edit: (start, end, correction)
Edit = tuple[int, int, str]


def extract_edits(source: str, hypothesis: str) -> frozenset[Edit]:
    """The non-overlapping token edits that rewrite ``source`` into
    ``hypothesis``."""
    src = source.split()
    hyp = hypothesis.split()
    table = alignment_table(src, hyp)

    # Backtrace, preferring match, then substitution, then deletion, then
    # insertion on cost ties. (end_i, end_j) is where the current run of
    # non-match steps ends; a match step, or the start of the sentence,
    # closes the run into one edit.
    edits: list[Edit] = []
    i, j = end_i, end_j = len(src), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and src[i - 1] == hyp[j - 1] and table[i][j] == table[i - 1][j - 1]:
            if (i, j) != (end_i, end_j):
                edits.append((i, end_i, " ".join(hyp[j:end_j])))
            i, j = end_i, end_j = i - 1, j - 1
        elif i > 0 and j > 0 and table[i][j] == table[i - 1][j - 1] + 1:
            i, j = i - 1, j - 1
        elif i > 0 and table[i][j] == table[i - 1][j] + 1:
            i -= 1
        else:
            j -= 1
    if (end_i, end_j) != (0, 0):
        edits.append((0, end_i, " ".join(hyp[:end_j])))
    return frozenset(edits)


def f05_from_counts(tp: int, fp: int, fn: int) -> float:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    if p + r == 0:
        return 0.0
    return (1 + 0.25) * p * r / (0.25 * p + r)


def sentence_counts(record: M2Record, hypothesis: str) -> tuple[int, int, int]:
    """TP/FP/FN for one sentence against the best-matching annotator.

    The annotator maximizing sentence-level F0.5 wins; ties prefer fewer
    FP+FN, then the lowest annotator id.
    """
    hyp_edits = extract_edits(record.source_text(), hypothesis)
    counts: list[tuple[int, int, int]] = []
    for edits in record.gold.values():
        gold = frozenset((e.start, e.end, e.correction) for e in edits)
        counts.append((len(hyp_edits & gold), len(hyp_edits - gold), len(gold - hyp_edits)))
    # max keeps the first of equal keys, so the lowest annotator id wins a tie
    return max(counts, key=lambda c: (f05_from_counts(*c), -(c[1] + c[2])))


def f05_with_counts(
    records: Sequence[M2Record], hypotheses: Sequence[str]
) -> tuple[float, list[tuple[int, int, int]]]:
    """Corpus-level F0.5 over per-sentence edit counts, and those
    (TP, FP, FN) counts in input order."""
    if len(records) != len(hypotheses):
        raise ValueError(
            f"records/hypotheses length mismatch: {len(records)} != {len(hypotheses)}"
        )
    per_sentence = [sentence_counts(r, h) for r, h in zip(records, hypotheses)]
    tp = sum(c[0] for c in per_sentence)
    fp = sum(c[1] for c in per_sentence)
    fn = sum(c[2] for c in per_sentence)
    return f05_from_counts(tp, fp, fn), per_sentence
