#!/usr/bin/env python3
"""Benchmark the word-level edit-distance functions of ``apio.metrics``.

Times ``word_levenshtein``, ``min_ref_levenshtein`` and ``alignment_table``
on random whitespace-token sentences of 1-30 tokens over a 2000-word
vocabulary, the sizes the optimizer scores, and checks their results
against each other. Each timing is the best of three runs. Run with
``src`` on the import path:

    PYTHONPATH=src python benchmarks/bench_levenshtein.py
"""

from __future__ import annotations

import random
import time

from apio.metrics.levenshtein import alignment_table, min_ref_levenshtein, word_levenshtein


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


def main() -> None:
    rng = random.Random(0)
    texts = _sentences(rng, 2000, 30)
    pairs = [(texts[i], texts[(i * 7 + 1) % len(texts)]) for i in range(len(texts))]
    multi = [(texts[i], texts[i + 1 : i + 1 + rng.randint(1, 4)]) for i in range(len(texts) - 5)]
    tokens = [(a.split(), b.split()) for a, b in pairs[:500]]
    batch = texts[:400]

    print("sentences: 1-30 tokens\n")
    _report(f"word_levenshtein x{len(pairs)}", len(pairs),
            _time(lambda: [word_levenshtein(a, b) for a, b in pairs]))
    _report(f"min_ref_levenshtein x{len(multi)} (1-4 refs)", len(multi),
            _time(lambda: [min_ref_levenshtein(o, refs) for o, refs in multi]))
    _report(f"alignment_table x{len(tokens)}", len(tokens),
            _time(lambda: [alignment_table(a, b) for a, b in tokens]))
    _report(f"min_ref_levenshtein {len(batch)} outputs x{len(batch)} refs", len(batch) ** 2,
            _time(lambda: [min_ref_levenshtein(o, batch) for o in batch]))

    # sanity: the bit-parallel distance agrees with the DP table, and the
    # multi-reference distance with the nearest single one, whose index
    # names a reference at that distance
    for (a, b), (ta, tb) in zip(pairs, tokens):
        assert word_levenshtein(a, b) == alignment_table(ta, tb)[-1][-1]
    for output, refs in multi:
        distance, nearest = min_ref_levenshtein(output, refs)
        assert distance == min(word_levenshtein(output, r) for r in refs)
        assert word_levenshtein(output, refs[nearest]) == distance
    print(f"\nsanity check: {len(tokens)} distances match the DP table,"
          f" {len(multi)} nearest-reference distances match the single ones")


if __name__ == "__main__":
    main()
