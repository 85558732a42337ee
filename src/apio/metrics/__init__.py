"""Scoring functions: word-level Levenshtein, SARI, edit-overlap F0.5."""
