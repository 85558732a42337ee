#!/usr/bin/env python3
"""Benchmark the word-level edit-distance functions of ``apio.metrics``.

Times ``word_levenshtein``, ``min_ref_levenshtein`` and ``alignment_table``
on random whitespace-token sentences of 1-30 tokens over a 2000-word
vocabulary, the sizes the optimizer scores, and checks their results
against each other. Also times the GEC scorer ``f05_with_counts``, which
aligns each hypothesis with its source, on seeded random M2 records from
``tests/m2gen.py``, and checks that the edits ``extract_edits`` finds
rewrite each source into its hypothesis. Each timing is the best of three
runs. Run with ``src`` on the import path:

    PYTHONPATH=src python benchmarks/bench_levenshtein.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from m2gen import VOCAB, random_record  # noqa: E402 - tests/ is put on the import path above

from apio.corpus import M2Record, apply_edits  # noqa: E402
from apio.metrics.gec import extract_edits, f05_with_counts  # noqa: E402
from apio.metrics.levenshtein import alignment_table, min_ref_levenshtein, word_levenshtein  # noqa: E402


def _sentences(rng: random.Random, count: int, max_len: int, vocab: int = 2000) -> list[str]:
    return [
        " ".join(f"w{rng.randrange(vocab)}" for _ in range(rng.randint(1, max_len)))
        for _ in range(count)
    ]


def _time(fn, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _report(label: str, count: int, elapsed: float) -> None:
    print(f"  {label:<40} {elapsed * 1e3:8.1f} ms  ({elapsed / count * 1e6:6.1f} us each)")


def _gec_cases(rng: random.Random, count: int) -> tuple[list[M2Record], list[str]]:
    """Random M2 records, each with a hypothesis that is an annotator's
    reference, the source, or random tokens, in turn."""
    records = [random_record(rng) for _ in range(count)]
    hypotheses: list[str] = []
    for i, record in enumerate(records):
        if i % 3 == 0:
            hypotheses.append(apply_edits(record, rng.choice(record.annotator_ids())))
        elif i % 3 == 1:
            hypotheses.append(record.source_text())
        else:
            hypotheses.append(" ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 12))))
    return records, hypotheses


def main() -> None:
    rng = random.Random(0)
    texts = _sentences(rng, 2000, 30)
    pairs = [(texts[i], texts[(i * 7 + 1) % len(texts)]) for i in range(len(texts))]
    multi = [(texts[i], texts[i + 1 : i + 1 + rng.randint(1, 4)]) for i in range(len(texts) - 5)]
    tokens = [(a.split(), b.split()) for a, b in pairs[:500]]
    batch = texts[:400]
    records, hypotheses = _gec_cases(rng, 2000)

    print("sentences: 1-30 tokens\n")
    _report(f"word_levenshtein x{len(pairs)}", len(pairs),
            _time(lambda: [word_levenshtein(a, b) for a, b in pairs]))
    _report(f"min_ref_levenshtein x{len(multi)} (1-4 refs)", len(multi),
            _time(lambda: [min_ref_levenshtein(o, refs) for o, refs in multi]))
    _report(f"alignment_table x{len(tokens)}", len(tokens),
            _time(lambda: [alignment_table(a, b) for a, b in tokens]))
    _report(f"min_ref_levenshtein {len(batch)} outputs x{len(batch)} refs", len(batch) ** 2,
            _time(lambda: [min_ref_levenshtein(o, batch) for o in batch]))
    _report(f"f05_with_counts x{len(records)} (m2gen records)", len(records),
            _time(lambda: f05_with_counts(records, hypotheses)))

    # sanity: the bit-parallel distance agrees with the DP table, and the
    # multi-reference distance with the nearest single one, whose index
    # names a reference at that distance
    for (a, b), (ta, tb) in zip(pairs, tokens):
        assert word_levenshtein(a, b) == alignment_table(ta, tb)[-1][-1]
    for output, refs in multi:
        distance, nearest = min_ref_levenshtein(output, refs)
        assert distance == min(word_levenshtein(output, r) for r in refs)
        assert word_levenshtein(output, refs[nearest]) == distance
    # sanity: the extracted edits rewrite each source into its hypothesis
    for record, hypothesis in zip(records, hypotheses):
        rewritten = record.source_text().split()
        for start, end, correction in sorted(extract_edits(record.source_text(), hypothesis), reverse=True):
            rewritten[start:end] = correction.split()
        assert rewritten == hypothesis.split()
    print(f"\nsanity check: {len(tokens)} distances match the DP table,"
          f" {len(multi)} nearest-reference distances match the single ones,"
          f" {len(records)} extracted edit sets rewrite their source into the hypothesis")


if __name__ == "__main__":
    main()
