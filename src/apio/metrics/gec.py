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
    # insertion on cost ties; ops are collected end-to-start.
    ops: list[str] = []
    i, j = len(src), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and src[i - 1] == hyp[j - 1] and table[i][j] == table[i - 1][j - 1]:
            ops.append("eq")
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and table[i][j] == table[i - 1][j - 1] + 1:
            ops.append("sub")
            i, j = i - 1, j - 1
        elif i > 0 and table[i][j] == table[i - 1][j] + 1:
            ops.append("del")
            i -= 1
        else:
            ops.append("ins")
            j -= 1
    ops.reverse()

    edits: list[Edit] = []
    si = hj = 0
    run_start: tuple[int, int] | None = None
    for op in ops + ["eq"]:
        if op == "eq":
            if run_start is not None:
                s0, h0 = run_start
                edits.append((s0, si, " ".join(hyp[h0:hj])))
                run_start = None
            si += 1
            hj += 1
        else:
            if run_start is None:
                run_start = (si, hj)
            if op == "sub":
                si += 1
                hj += 1
            elif op == "del":
                si += 1
            else:
                hj += 1
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
    by_annotator = record.edits_by_annotator()
    best: tuple[float, int, int, tuple[int, int, int]] | None = None
    for annotator in record.annotator_ids():
        gold = frozenset((e.start, e.end, e.correction) for e in by_annotator.get(annotator, ()))
        tp = len(hyp_edits & gold)
        fp = len(hyp_edits - gold)
        fn = len(gold - hyp_edits)
        key = (f05_from_counts(tp, fp, fn), -(fp + fn), -annotator, (tp, fp, fn))
        if best is None or key[:3] > best[:3]:
            best = key
    assert best is not None
    return best[3]


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
