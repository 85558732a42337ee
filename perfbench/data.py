"""Seeded synthetic inputs for the benchmark.

* A simplification corpus in asset layout (one source file, one file per
  reference). Each source mixes plain filler words with a few "complex"
  words drawn uniformly from a small lexicon; every reference replaces
  the complex words by a simple synonym and also changes one filler word
  of its own, so the nearest reference always stays at least one word
  away. Each useful instruction fixes one lexicon entry, worth about the
  same share of the error whichever entry it is, so the search keeps
  improving for many epochs, never reaches zero error, and its progress
  varies little from seed to seed.
* A grammatical-error-correction test set in M2 with one-token errors
  planted apart from each other, a fixed share of duplicated lines, and a
  prompt whose rules fix a known subset of the error kinds. Every line
  carries exactly one error of a kind the rules leave alone.

Every word is a pseudo-word built from syllables, so inputs differ by seed
in both content and spelling.
"""

from __future__ import annotations

import random

_ONSETS = "b d f g k l m n p r s t v z".split()
_VOWELS = "a e i o u".split()


def _words(rng: random.Random, count: int, syllables: tuple[int, int], taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(rng.randint(*syllables))
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def simplification_corpus(
    seed: int, rows: int = 400, n_refs: int = 3, lexicon: int = 24
) -> tuple[list[str], list[list[str]]]:
    """(sources, reference columns) of a lexical-simplification corpus."""
    rng = random.Random(f"simplify-{seed}")
    taken: set[str] = set()
    filler = _words(rng, 300, (1, 2), taken)
    complex_words = _words(rng, lexicon, (4, 5), taken)
    simple = [_words(rng, 2, (2, 2), taken) for _ in complex_words]
    sources: list[str] = []
    columns: list[list[str]] = [[] for _ in range(n_refs)]
    for _ in range(rows):
        length = rng.randint(10, 25)
        tokens = [rng.choice(filler) for _ in range(length)]
        slots = rng.sample(range(length), rng.randint(2, 4))
        picked = rng.sample(range(lexicon), len(slots))
        for slot, index in zip(slots, picked):
            tokens[slot] = complex_words[index]
        sources.append(" ".join(tokens))
        plain = [i for i in range(length) if i not in slots]
        noise = rng.sample(plain, n_refs)
        for ref, column in enumerate(columns):
            out = list(tokens)
            for slot, index in zip(slots, picked):
                out[slot] = simple[index][0 if ref < n_refs - 1 else 1]
            out[noise[ref]] = rng.choice([w for w in filler if w != tokens[noise[ref]]])
            column.append(" ".join(out))
    return sources, columns


def gec_test_set(
    seed: int, rows: int = 300, duplicate_share: float = 0.25, kinds: int = 30, fixed_kinds: int = 20
) -> tuple[str, list[str], list[tuple[str, str]], list[list[int]]]:
    """(M2 text, source lines, prompt rules, planted error kinds per line)
    of a GEC test set.

    ``duplicate_share`` of the lines repeat an earlier line verbatim. The
    rules correct the error kinds below ``fixed_kinds`` of ``kinds``.
    """
    rng = random.Random(f"gec-{seed}")
    taken: set[str] = set()
    filler = _words(rng, 200, (1, 2), taken)
    wrong = _words(rng, kinds, (3, 3), taken)
    right = _words(rng, kinds, (3, 3), taken)
    unique = rows - round(rows * duplicate_share)
    records: list[tuple[list[str], list[tuple[int, int]]]] = []
    for _ in range(unique):
        length = rng.randint(8, 20)
        tokens = [rng.choice(filler) for _ in range(length)]
        # even slots only, so no two planted errors touch and an aligner
        # cannot merge them into one edit
        slots = sorted(rng.sample(range(0, length, 2), rng.randint(1, 3)))
        line_kinds = [rng.randrange(fixed_kinds, kinds)] + [rng.randrange(fixed_kinds) for _ in slots[1:]]
        rng.shuffle(line_kinds)
        edits = list(zip(slots, line_kinds))
        for slot, kind in edits:
            tokens[slot] = wrong[kind]
        records.append((tokens, edits))
    order = list(range(unique)) + [rng.randrange(unique) for _ in range(rows - unique)]
    rng.shuffle(order)
    blocks, lines, planted = [], [], []
    for index in order:
        tokens, edits = records[index]
        block = ["S " + " ".join(tokens)]
        block += [f"A {s} {s + 1}|||R:SPELL|||{right[k]}|||REQUIRED|||-NONE-|||0" for s, k in edits]
        blocks.append("\n".join(block) + "\n")
        lines.append(" ".join(tokens))
        planted.append([k for _, k in edits])
    rules = [(wrong[k], right[k]) for k in range(fixed_kinds)]
    return "\n".join(blocks), lines, rules, planted
