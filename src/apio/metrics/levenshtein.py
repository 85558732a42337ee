"""Word-level Levenshtein edit distance.

Tokenization is whitespace splitting. Distances come from the
bit-parallel algorithm of Myers (1999) in Hyyrö's (2001) formulation for
global edit distance: one pattern's DP column is held as vertical +1/-1
delta bit vectors in Python ints, and each token of the other text
updates the whole column with a constant number of integer operations.
The per-token match masks are built once per pattern and reused across
every text it is compared with.
"""

from __future__ import annotations

from collections.abc import Sequence


def _match_masks(pattern: Sequence[str]) -> dict[str, int]:
    """Bit i of ``masks[token]`` is set when ``pattern[i] == token``."""
    masks: dict[str, int] = {}
    for i, token in enumerate(pattern):
        masks[token] = masks.get(token, 0) | (1 << i)
    return masks


def _distance(masks: dict[str, int], m: int, text: Sequence[str]) -> int:
    """Edit distance between a pattern of ``m`` tokens, given by its match
    masks, and ``text``.

    Only bits below ``m`` are meaningful. Carries and shifts move bits
    upward only, so the bits above ``m`` (and the sign that ``~`` sets)
    never reach them; masking ``pv`` each step keeps the ints small.
    """
    if not m:
        return len(text)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    get = masks.get
    pv, mv, score = full, 0, m
    for token in text:
        eq = get(token, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def word_levenshtein(a: str, b: str) -> int:
    """Minimal number of token insertions/deletions/substitutions turning
    the tokens of ``a`` into the tokens of ``b``."""
    pattern = a.split()
    return _distance(_match_masks(pattern), len(pattern), b.split())


def min_ref_levenshtein(output: str, references: Sequence[str]) -> tuple[int, int]:
    """(distance, index) of the reference closest to ``output``; of
    several at that distance, the first."""
    if not references:
        raise ValueError("references must be non-empty")
    pattern = output.split()
    masks = _match_masks(pattern)
    return min((_distance(masks, len(pattern), ref.split()), i) for i, ref in enumerate(references))


def alignment_table(src_tokens: Sequence[str], hyp_tokens: Sequence[str]) -> list[list[int]]:
    """Full (len(src)+1) x (len(hyp)+1) DP table for alignment backtraces,
    indexed ``table[i][j]``."""
    table = [list(range(len(hyp_tokens) + 1))]
    for i, src in enumerate(src_tokens, 1):
        prev = table[-1]
        row = [i]
        for j, hyp in enumerate(hyp_tokens, 1):
            row.append(min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (src != hyp)))
        table.append(row)
    return table

