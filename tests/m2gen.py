"""Random M2 record generation and the M2 writer, for round-trip fuzzing."""

from __future__ import annotations

import random

from apio.corpus import M2Edit, M2Record

VOCAB = ["the", "a", "cat", "dog", "sat", "on", "mat", "go", "went", "big", "red", "he", "she"]
TYPE_LABELS = ["R:VERB", "M:DET", "U:PREP", "R:NOUN", "R:ORTH"]


def random_record(rng: random.Random, max_tokens: int = 12, max_annotators: int = 3) -> M2Record:
    n = rng.randint(1, max_tokens)
    tokens = tuple(rng.choice(VOCAB) for _ in range(n))
    gold: dict[int, list[M2Edit]] = {}
    for annotator in range(rng.randint(1, max_annotators)):
        if rng.random() < 0.2:
            gold[annotator] = []  # a noop annotator
            continue
        edits: list[M2Edit] = []
        cursor = 0
        while cursor < n and rng.random() < 0.6:
            start = rng.randint(cursor, n)
            if start >= n and rng.random() < 0.5:
                break
            end = min(n, start + rng.randint(0, 2))
            correction = " ".join(rng.choice(VOCAB) for _ in range(rng.randint(0, 2)))
            if start == end and not correction:
                cursor = start + 1
                continue
            edits.append(M2Edit(start, end, rng.choice(TYPE_LABELS), correction))
            cursor = end + 1
        if edits:  # an annotator who made no edit and wrote no noop line is absent
            gold[annotator] = edits
    return M2Record(tokens, gold)


def serialize_m2(record: M2Record) -> str:
    """Canonical M2 text for a record (inverse of parsing)."""
    lines = ["S " + " ".join(record.source_tokens)]
    for annotator, edits in record.gold.items():
        for edit in edits:
            correction = edit.correction if edit.correction else "-NONE-"
            lines.append(f"A {edit.start} {edit.end}|||{edit.type_label}|||{correction}|||REQUIRED|||-NONE-|||{annotator}")
        if not edits:
            lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
    return "\n".join(lines) + "\n"
