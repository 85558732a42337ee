"""Run configuration: built-in defaults < config file < CLI flags.

The resolved snapshot is persisted with every run so any deviation from
defaults stays auditable. Every section checks its values with
``check_fields`` when it is made. ``from_object`` and ``to_object`` read
and write the JSON form of this and every other dataclass a run file holds.
"""

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import get_type_hints
from urllib.parse import urlsplit

from .corpus import (
    ConfigurationError,
    SamplePair,
    load_asset,
    load_jsonl,
    load_m2,
    m2_pairs,
    sample_split,
)
from .prompts import TASK_TEMPLATES

# the bound of every bounded field, by the name its errors give it; a run
# needs training pairs for induction and dev pairs for every fitness
BOUNDS = {
    "backend.retry_max": (">=", 0), "backend.timeout_s": (">", 0), "backend.max_tokens": (">=", 1),
    "data.train_size": (">=", 1), "data.dev_size": (">=", 1),
    "induction.n_instructions": (">=", 1), "induction.n_trials": (">=", 1),
    "optimizer.n_epochs": (">=", 0), "optimizer.beam_b": (">=", 1), "optimizer.n_permute": (">=", 2),
    "optimizer.lambda": (">=", 0), "optimizer.improve_samples": (">=", 1),
    "optimizer.improve_batch": (">=", 1), "optimizer.dev_subsample": (">=", 1),
}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               list[str]: "a list of strings", list[int]: "a list of integers"}


def _admits(kind: type, value: object) -> bool:
    """An int field refuses a bool, a float field admits an int, and a list
    or a ``tuple[X, ...]`` checks each item."""
    if (origin := getattr(kind, "__origin__", None)) in (list, tuple):
        return type(value) is origin and all(_admits(kind.__args__[0], item) for item in value)
    return type(value) in ((int, float) if kind is float else (kind,))


def check_fields(obj: object, section: str = "") -> None:
    """Refuse the first field of dataclass ``obj`` whose value is not of
    its annotated type (``X | None`` also admits None) or breaks its bound
    in ``BOUNDS``, naming it ``<section>.<field>``. Annotations postponed
    by ``from __future__ import annotations`` are evaluated first."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        name = f"{section}.{f.metadata.get('key', f.name)}".lstrip(".")
        kind = hints[f.name]
        kind, *none = kind.__args__ if isinstance(kind, UnionType) else (kind,)
        if value is None and none:
            continue
        op, low = BOUNDS.get(name, ("", 0))
        if _admits(kind, value) and (not op or (value > low if op == ">" else value >= low)):
            continue
        # a section or another dataclass, or a list of them
        want = _KIND_NAMES.get(kind, "a list of objects" if getattr(kind, "__origin__", None) is list else "an object")
        if op:
            want += f" {op} {low}"
        if none:
            want += " or null"
        raise ConfigurationError(f"{name} must be {want}, got {value!r}")


def from_object(cls: type, data: object, name: str = ""):
    """``cls`` read from the JSON object ``data`` and checked with
    ``check_fields``. Each field's key is its ``metadata["key"]`` or its
    name; the key of a field without a default must be there, and no other
    key may be. A field of dataclass type, or a list or tuple of them, is
    read in turn. ``name`` is the path of ``data`` in its file, "" at the
    top: errors name a key ``<name>.<key>`` and a list item ``<name>[<i>]``."""
    where = name or "the top level"
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {data!r}")
    keyed = {f.metadata.get("key", f.name): f for f in fields(cls)}
    if unknown := sorted(data.keys() - keyed.keys()):
        raise ConfigurationError(f"{where} holds the unknown key {unknown[0]!r}")
    if missing := [k for k, f in keyed.items() if k not in data and f.default is MISSING is f.default_factory]:
        raise ConfigurationError(f"{where} lacks the key {missing[0]!r}")
    hints = get_type_hints(cls)
    obj = cls(**{f.name: _read(hints[f.name], data[key], f"{name}.{key}".lstrip("."))
                 for key, f in keyed.items() if key in data})
    check_fields(obj, name)
    return obj


def _read(kind: type, value: object, name: str) -> object:
    """``value`` read as a field of type ``kind``, where ``X | None`` reads
    as ``X``: an object becomes a dataclass, and a list's items are read in turn."""
    if isinstance(kind, UnionType):
        kind = kind.__args__[0]
    if is_dataclass(kind):
        return from_object(kind, value, name)
    if getattr(kind, "__origin__", None) in (list, tuple) and type(value) is list:
        return kind.__origin__(_read(kind.__args__[0], item, f"{name}[{i}]") for i, item in enumerate(value))
    return value


def to_object(obj: object) -> object:
    """The JSON form of ``obj``, which ``from_object`` reads back: a
    dataclass becomes a dict keyed by each field's JSON key, and a list or
    tuple a list."""
    if is_dataclass(obj):
        return {f.metadata.get("key", f.name): to_object(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_object(item) for item in obj]
    return obj


@dataclass
class BackendConfig:
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    retry_max: int = 5
    timeout_s: float = 60.0
    max_tokens: int = 1024
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        check_fields(self, "backend")
        try:
            url = urlsplit(self.base_url)
            valid = url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
        except ValueError:  # a port that is not a number from 1 to 65535
            valid = False
        if not valid:
            raise ConfigurationError(
                f"backend.base_url must be an http(s) URL with a host, got {self.base_url!r}"
            )


@dataclass
class DataConfig:
    format: str = "jsonl"  # jsonl | asset | m2
    path: str | None = None
    source: str | None = None
    references: list[str] = field(default_factory=list)
    train_size: int = 200
    dev_size: int = 200
    split_seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, "data")


@dataclass(frozen=True)
class InductionConfig:
    n_instructions: int = 3
    n_trials: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, "induction")


@dataclass(frozen=True)
class OptimizerConfig:
    n_epochs: int = 15
    beam_b: int = 32
    n_permute: int = 2
    drift_weight: float = field(default=0.05, metadata={"key": "lambda"})
    improve_samples: int = 4
    improve_batch: int = 2
    dev_subsample: int | None = 50  # None scores on the whole dev split
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, "optimizer")


@dataclass
class RunConfig:
    task: str = "generic"
    seed: int = 0
    backend: BackendConfig = field(default_factory=BackendConfig)
    data: DataConfig = field(default_factory=DataConfig)
    induction: InductionConfig = field(default_factory=InductionConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.task not in TASK_TEMPLATES:
            raise ConfigurationError(f"unknown task {self.task!r}")


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Merge file config under CLI overrides on top of defaults."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}")
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        node = data
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        if isinstance(node, dict):  # else from_object names the malformed section
            node[leaf] = value
    if isinstance(optimizer := data.get("optimizer"), dict) and optimizer.get("dev_subsample") == "all":
        optimizer["dev_subsample"] = None
    cfg = from_object(RunConfig, data)
    # seeds propagate from the run seed unless set explicitly
    if "seed" not in (data.get("induction") or {}):
        cfg.induction = replace(cfg.induction, seed=cfg.seed)
    if "seed" not in (data.get("optimizer") or {}):
        cfg.optimizer = replace(cfg.optimizer, seed=cfg.seed)
    return cfg


def load_pairs(data: DataConfig) -> list[SamplePair]:
    """Materialize the configured dataset as sample pairs."""
    if data.format in ("jsonl", "m2") and not data.path:
        raise ConfigurationError(f"data.path is required for {data.format} format")
    if data.format == "jsonl":
        return load_jsonl(data.path)
    if data.format == "asset":
        if not data.source or not data.references:
            raise ConfigurationError("data.source and data.references are required for asset format")
        return load_asset(data.source, data.references)
    if data.format == "m2":
        return m2_pairs(load_m2(data.path))
    raise ConfigurationError(f"unknown data format {data.format!r}")


def split_pairs(cfg: RunConfig) -> tuple[list[SamplePair], list[SamplePair]]:
    return sample_split(load_pairs(cfg.data), cfg.data.train_size, cfg.data.dev_size, cfg.data.split_seed)
