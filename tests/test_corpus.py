from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apio.config import DataConfig, load_pairs
from apio.corpus import (
    ConfigurationError,
    M2Edit,
    M2Record,
    SamplePair,
    apply_edits,
    load_asset,
    load_jsonl,
    load_m2,
    m2_pairs,
    reference_texts,
    sample_split,
)
from m2gen import random_record, serialize_m2


# -- asset ------------------------------------------------------------------


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_load_asset(tmp_path):
    src = tmp_path / "src.txt"
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    _write(src, ["one two", "three", "four five six"])
    _write(r1, ["1 2", "3", "4 5 6"])
    _write(r2, ["uno dos", "tres", "cuatro"])
    pairs = load_asset(src, [r1, r2])
    assert len(pairs) == 3
    assert pairs[0].source == "one two"
    assert pairs[0].references == ("1 2", "uno dos")
    assert pairs[2].references == ("4 5 6", "cuatro")
    assert len({p.id for p in pairs}) == 3


def test_load_asset_single_line_identity(tmp_path):
    src, ref = tmp_path / "s.txt", tmp_path / "r.txt"
    _write(src, ["hello"])
    _write(ref, ["hello"])
    pairs = load_asset(src, [ref])
    assert len(pairs) == 1
    assert pairs[0].references == ("hello",)


def test_load_asset_mismatch_names_file(tmp_path):
    src, ref = tmp_path / "s.txt", tmp_path / "r.txt"
    _write(src, ["a", "b", "c"])
    _write(ref, ["a", "b"])
    with pytest.raises(ConfigurationError, match="r.txt.*line-count mismatch"):
        load_asset(src, [ref])


def test_load_asset_empty_file(tmp_path):
    src = tmp_path / "s.txt"
    src.write_text("", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="empty"):
        load_asset(src, [])


def test_output_length_equals_line_count(tmp_path):
    rng = random.Random(3)
    for n in (1, 5, 17):
        src, ref = tmp_path / f"s{n}.txt", tmp_path / f"r{n}.txt"
        _write(src, [f"line {i}" for i in range(n)])
        _write(ref, [f"ref {rng.random():.3f}" for _ in range(n)])
        assert len(load_asset(src, [ref])) == n


# -- jsonl ------------------------------------------------------------------


def test_load_jsonl(tmp_path):
    path = tmp_path / "toy.jsonl"
    path.write_text(
        '{"id": "x", "source": "a b", "references": ["a c"]}\n'
        '{"source": "d", "references": ["d", "e"]}\n',
        encoding="utf-8",
    )
    pairs = load_jsonl(path)
    assert pairs[0] == SamplePair("x", "a b", ("a c",))
    assert pairs[1].id == "jsonl-1"
    assert pairs[1].references == ("d", "e")


def test_load_jsonl_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"source": "a"}\n', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="references"):
        load_jsonl(path)


@pytest.mark.parametrize(
    "line",
    [
        "5",
        '{"source": "a b", "references": "the ref"}',
        '{"source": "a b", "references": []}',
        '{"source": "a b", "references": ["ok", 3]}',
        '{"source": 7, "references": ["a"]}',
    ],
)
def test_load_jsonl_rejects_malformed_objects(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"source": "x", "references": ["y"]}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=f"^{re.escape(str(path))}:2: "):
        load_jsonl(path)


def test_load_jsonl_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text(
        '{"id": "x", "source": "a", "references": ["b"]}\n'
        '{"id": "x", "source": "c", "references": ["d"]}\n',
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="duplicate sample id"):
        load_jsonl(path)


# -- m2 ---------------------------------------------------------------------


def test_parse_m2_record(tmp_path):
    path = tmp_path / "g.m2"
    path.write_text(
        "S a b c\nA 1 2|||R:X|||x|||REQUIRED|||-NONE-|||0\n\n"
        "S d e\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    records = load_m2(path)
    assert len(records) == 2
    assert records[0].source_tokens == ("a", "b", "c")
    assert records[0].edits == (M2Edit(1, 2, "R:X", "x", 0),)
    assert records[1].edits == ()
    assert records[1].noop_annotators == frozenset({0})


def test_parse_m2_errors_carry_line_numbers(tmp_path):
    bad_fields = tmp_path / "f.m2"
    bad_fields.write_text("S a b\nA 0 1|||R:X|||x\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=":2:"):
        load_m2(bad_fields)

    bad_span = tmp_path / "s.m2"
    bad_span.write_text("S a b\nA zero 1|||R:X|||x|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="non-integer span"):
        load_m2(bad_span)

    out_of_range = tmp_path / "o.m2"
    out_of_range.write_text("S a b\nA 1 5|||R:X|||x|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="span"):
        load_m2(out_of_range)


def test_noop_conflict_rejected(tmp_path):
    path = tmp_path / "c.m2"
    path.write_text(
        "S a b\n"
        "A 0 1|||R:X|||x|||REQUIRED|||-NONE-|||0\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigurationError, match="noop"):
        load_m2(path)


def test_serialize_parse_round_trip_explicit(tmp_path):
    record = M2Record(
        ("a", "b", "c"),
        (M2Edit(0, 1, "R:X", "A", 0), M2Edit(2, 3, "U:DEL", "", 1)),
        frozenset({2}),
    )
    path = tmp_path / "rt.m2"
    path.write_text(serialize_m2(record) + "\n", encoding="utf-8")
    assert load_m2(path) == [record]


def test_serialize_parse_round_trip_fuzz(tmp_path):
    rng = random.Random(99)
    records = [random_record(rng) for _ in range(300)]
    path = tmp_path / "fuzz.m2"
    path.write_text("\n".join(serialize_m2(r) for r in records), encoding="utf-8")
    assert load_m2(path) == records


# -- apply_edits ------------------------------------------------------------


def test_apply_single_substitution():
    record = M2Record(("a", "b", "c"), (M2Edit(1, 2, "R:X", "x", 0),))
    assert apply_edits(record, 0) == "a x c"


def test_apply_noop_and_absent_edits():
    noop = M2Record(("a", "b", "c"), (), frozenset({0}))
    assert apply_edits(noop, 0) == "a b c"
    empty = M2Record(("a", "b"), ())
    assert apply_edits(empty, 5) == "a b"


def test_apply_deletion_and_insertion():
    record = M2Record(
        ("a", "b", "c"),
        (M2Edit(0, 1, "U:DEL", "", 0), M2Edit(3, 3, "M:ADD", "d e", 0)),
    )
    assert apply_edits(record, 0) == "b c d e"


def test_apply_unknown_annotator():
    record = M2Record(("a",), (M2Edit(0, 1, "R:X", "x", 0),))
    with pytest.raises(LookupError, match="unknown annotator"):
        apply_edits(record, 3)


def test_overlapping_edits_rejected():
    record = M2Record(
        ("a", "b", "c"),
        (M2Edit(0, 2, "R:X", "x", 0), M2Edit(1, 3, "R:Y", "y", 0)),
    )
    with pytest.raises(ConfigurationError, match="overlapping edits"):
        apply_edits(record, 0)


def test_same_position_inserts_apply_in_listed_order():
    record = M2Record(
        ("a",),
        (M2Edit(1, 1, "M:A", "x", 0), M2Edit(1, 1, "M:B", "y", 0)),
    )
    assert apply_edits(record, 0) == "a x y"


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_zero_edit_apply_is_identity(seed):
    record = random_record(random.Random(seed))
    stripped = M2Record(record.source_tokens, (), record.noop_annotators)
    for annotator in stripped.annotator_ids():
        assert apply_edits(stripped, annotator) == stripped.source_text()


def test_reference_texts_orders_annotators():
    record = M2Record(
        ("a", "b"),
        (M2Edit(0, 1, "R:X", "x", 1),),
        frozenset({0}),
    )
    assert reference_texts(record) == ["a b", "x b"]


def test_m2_pairs_carry_their_records_and_jsonl_pairs_none(tmp_path):
    rng = random.Random(5)
    records = [random_record(rng) for _ in range(6)]
    gold = tmp_path / "gold.m2"
    gold.write_text("\n".join(serialize_m2(r) for r in records), encoding="utf-8")
    pairs = m2_pairs(records)
    assert [(p.id, p.source, p.references, p.record) for p in pairs] == [
        (f"m2-{i}", r.source_text(), tuple(reference_texts(r)), r) for i, r in enumerate(records)
    ]
    assert load_pairs(DataConfig(format="m2", path=str(gold))) == pairs  # records compared too
    jsonl = tmp_path / "toy.jsonl"
    jsonl.write_text('{"source": "a b", "references": ["a c"]}\n', encoding="utf-8")
    assert [p.record for p in load_pairs(DataConfig(format="jsonl", path=str(jsonl)))] == [None]


# -- split ------------------------------------------------------------------


def _corpus(n: int) -> list[SamplePair]:
    return [SamplePair(f"p{i}", f"src {i}", (f"ref {i}",)) for i in range(n)]


def test_split_deterministic_and_disjoint():
    corpus = _corpus(10)
    first = sample_split(corpus, 3, 2, seed=7)
    second = sample_split(corpus, 3, 2, seed=7)
    assert first == second
    train, dev = first
    assert len(train) == 3 and len(dev) == 2
    assert not {p.id for p in train} & {p.id for p in dev}


def test_split_empty_train_is_valid():
    train, dev = sample_split(_corpus(4), 0, 2, seed=1)
    assert train == []
    assert len(dev) == 2


def test_split_infeasible_sizes():
    with pytest.raises(ConfigurationError):
        sample_split(_corpus(4), 3, 2, seed=0)


def test_split_is_order_stable():
    corpus = _corpus(20)
    train, dev = sample_split(corpus, 5, 5, seed=3)
    ids = [int(p.id[1:]) for p in train]
    assert ids == sorted(ids)
    ids = [int(p.id[1:]) for p in dev]
    assert ids == sorted(ids)
