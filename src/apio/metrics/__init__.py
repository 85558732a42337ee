"""Scoring functions: word-level Levenshtein, SARI, edit-overlap F0.5."""

from .gec import apply_edit_set, extract_edits, f05, f05_from_counts, f05_with_counts
from .levenshtein import (
    min_ref_levenshtein,
    pairwise_word_levenshtein,
    word_levenshtein,
)
from .sari import sari

__all__ = [
    "apply_edit_set",
    "extract_edits",
    "f05",
    "f05_from_counts",
    "f05_with_counts",
    "min_ref_levenshtein",
    "pairwise_word_levenshtein",
    "sari",
    "word_levenshtein",
]
