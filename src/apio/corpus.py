"""Reading apio's files: the datasets (line-aligned multi-reference
files, M2-annotated GEC files and generic paired JSONL), and the text,
lines or JSON of any other file, each refused naming its path.

All loaders are pure functions over file contents; text is used verbatim
apart from stripping surrounding whitespace per line. Token operations
split on any whitespace and join by single spaces; no detokenizer is involved.
"""

from __future__ import annotations

import json
import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path


class ConfigurationError(ValueError):
    """A usage fault, which exits 2: an input, config, script, state or
    history file that cannot be used, a flag or split that cannot be met,
    or a run that is locked, already exists or has nothing to resume."""


@dataclass(frozen=True)
class SamplePair:
    id: str
    source: str
    references: tuple[str, ...]
    record: M2Record | None = None  # the M2 gold of an m2 pair

    def __post_init__(self):
        if not self.references:
            raise ValueError(f"sample {self.id}: references must be non-empty")


@dataclass(frozen=True)
class M2Edit:
    start: int
    end: int
    type_label: str
    correction: str


@dataclass(frozen=True)
class M2Record:
    """``gold`` maps each annotator id, ascending, to its edits in file
    order; a noop annotator has none, and a record without annotators has
    annotator 0 with none. A record from ``load_m2`` keeps
    ``source_text().split() == list(source_tokens)``."""
    source_tokens: tuple[str, ...]
    gold: dict[int, tuple[M2Edit, ...]] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "gold", {a: tuple(edits) for a, edits in sorted(self.gold.items())} or {0: ()})

    def source_text(self) -> str:
        return " ".join(self.source_tokens)


def read_text(path: str | Path) -> str:
    """The text of the UTF-8 file ``path``; a file that is not UTF-8 is
    refused naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8: {exc}") from None


def read_json(path: str | Path) -> object:
    """The JSON value of the UTF-8 file ``path``; a file that is not UTF-8
    or not JSON, or nested too deeply to parse, is refused naming it."""
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from None


def read_lines(path: str | Path) -> list[str]:
    """The lines of the UTF-8 file ``path`` without their newlines; an
    empty file has none."""
    text = read_text(path).removesuffix("\n")
    return text.split("\n") if text else []


def _read_lines(path: str | Path) -> list[str]:
    if not (lines := read_lines(path)):
        raise ConfigurationError(f"{path}: file is empty")
    return [line.strip() for line in lines]


def load_asset(source_path: str | Path, reference_paths: Sequence[str | Path]) -> list[SamplePair]:
    """Line-aligned source file plus one file per reference."""
    sources = _read_lines(source_path)
    columns = []
    for ref_path in reference_paths:
        lines = _read_lines(ref_path)
        if len(lines) != len(sources):
            raise ConfigurationError(
                f"{ref_path}: line-count mismatch ({len(lines)} lines, "
                f"expected {len(sources)} from {source_path})"
            )
        columns.append(lines)
    return [
        SamplePair(
            id=f"asset-{i}",
            source=src,
            references=tuple(col[i] for col in columns),
        )
        for i, src in enumerate(sources)
    ]


def load_jsonl(path: str | Path) -> list[SamplePair]:
    """One JSON object per line with "source" and "references" keys, and
    an optional "id", a string or an integer that no other line's id
    repeats; a line without one is ``jsonl-<index>``."""
    pairs: dict[str, SamplePair] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ConfigurationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        refs = obj.get("references") if isinstance(obj, dict) else None
        if not (
            isinstance(refs, list)
            and refs
            and all(isinstance(r, str) for r in refs)
            and isinstance(obj.get("source"), str)
        ):
            raise ConfigurationError(
                f"{path}:{lineno}: expected an object with a string 'source'"
                " and a non-empty list of strings 'references'"
            )
        sample_id = obj.get("id", f"jsonl-{lineno - 1}")
        if type(sample_id) not in (str, int):
            raise ConfigurationError(f"{path}:{lineno}: 'id' must be a string or an integer, got {sample_id!r}")
        sample_id = str(sample_id)
        if sample_id in pairs:
            raise ConfigurationError(f"{path}:{lineno}: duplicate sample id {sample_id!r}")
        pairs[sample_id] = SamplePair(sample_id, obj["source"].strip(), tuple(r.strip() for r in refs))
    if not pairs:
        raise ConfigurationError(f"{path}: file is empty")
    return list(pairs.values())


_NOOP_TYPE = "noop"
_NONE_FIELD = "-NONE-"


def _parse_m2_block(lines: list[tuple[int, str]], path: str | Path) -> M2Record:
    lineno, first = lines[0]
    if not first.startswith("S ") and first != "S":
        raise ConfigurationError(f"{path}:{lineno}: record must start with an 'S ' line")
    tokens = tuple(first[2:].split())
    if " ".join(tokens) != first[2:]:
        raise ConfigurationError(
            f"{path}:{lineno}: sentence holds an empty token or other whitespace; separate tokens by single spaces"
        )
    gold: dict[int, list[M2Edit]] = {}
    noops: set[int] = set()
    for lineno, line in lines[1:]:
        if not line.startswith("A "):
            raise ConfigurationError(f"{path}:{lineno}: expected an 'A ' edit line")
        fields = line[2:].split("|||")
        if len(fields) != 6:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 6 '|||'-separated fields, got {len(fields)}"
            )
        span = fields[0].split()
        if len(span) != 2:
            raise ConfigurationError(f"{path}:{lineno}: span must be two integers")
        try:
            start, end = int(span[0]), int(span[1])
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: non-integer span") from exc
        try:
            annotator = int(fields[5])
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: non-integer annotator id") from exc
        edits = gold.setdefault(annotator, [])
        type_label = fields[1]
        if type_label == _NOOP_TYPE or (start, end) == (-1, -1):
            noops.add(annotator)
            continue
        if not 0 <= start <= end <= len(tokens):
            raise ConfigurationError(
                f"{path}:{lineno}: span {start} {end} outside 0..{len(tokens)}"
            )
        for prev in edits:
            (s0, e0), (s1, e1) = sorted([(prev.start, prev.end), (start, end)])
            if s1 < e0:
                raise ConfigurationError(
                    f"{path}:{lineno}: overlapping edits for annotator {annotator}: ({s0},{e0}) and ({s1},{e1})"
                )
        correction = " ".join(fields[2].split())
        edits.append(M2Edit(start, end, type_label, "" if correction == _NONE_FIELD else correction))
    conflict = [a for a in sorted(noops) if gold[a]]
    if conflict:
        raise ConfigurationError(
            f"{path}:{lines[0][0]}: noop coexists with substantive edits "
            f"for annotator(s) {conflict}"
        )
    return M2Record(tokens, gold)


def load_m2(path: str | Path) -> list[M2Record]:
    """Parse an M2 file into records split on blank lines."""
    records = []
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate([*read_text(path).split("\n"), ""], start=1):
        if line.strip():
            block.append((lineno, line))
        elif block:
            records.append(_parse_m2_block(block, path))
            block = []
    if not records:
        raise ConfigurationError(f"{path}: file is empty")
    return records


def apply_edits(record: M2Record, annotator: int) -> str:
    """Materialize one annotator's reference by applying edits right-to-left."""
    if annotator not in record.gold:
        raise LookupError(f"unknown annotator {annotator}; record has {list(record.gold)}")
    tokens = list(record.source_tokens)
    for edit in reversed(sorted(record.gold[annotator], key=lambda e: (e.start, e.end))):
        tokens[edit.start: edit.end] = edit.correction.split()
    return " ".join(tokens)


def reference_texts(record: M2Record) -> list[str]:
    """All annotator references for a record, in annotator-id order."""
    return [apply_edits(record, a) for a in record.gold]


def m2_pairs(records: Sequence[M2Record]) -> list[SamplePair]:
    """Each record as the sample pair that carries it: id ``m2-<index>``,
    the source text and every annotator's reference."""
    return [SamplePair(f"m2-{i}", r.source_text(), tuple(reference_texts(r)), r) for i, r in enumerate(records)]


def sample_split(
    corpus: Sequence[SamplePair], train_size: int, dev_size: int, seed: int
) -> tuple[list[SamplePair], list[SamplePair]]:
    """Disjoint seeded train/dev split, order-stable w.r.t. the corpus."""
    if train_size < 0 or dev_size < 0:
        raise ConfigurationError("split sizes must be non-negative")
    if train_size + dev_size > len(corpus):
        raise ConfigurationError(
            f"train+dev ({train_size}+{dev_size}) exceeds corpus size {len(corpus)}"
        )
    rng = random.Random(seed)
    picks = rng.sample(range(len(corpus)), train_size + dev_size)
    train_idx = sorted(picks[:train_size])
    dev_idx = sorted(picks[train_size:])
    return [corpus[i] for i in train_idx], [corpus[i] for i in dev_idx]
