"""Run configuration: built-in defaults < config file < CLI flags.

The resolved snapshot is persisted with every run so any deviation from
defaults stays auditable. ``from_object`` and ``to_object`` read and
write the JSON form of this and every other dataclass a run file holds;
``from_object`` checks each value it reads against its field's type and
bound, so a section the program makes itself is not checked again.
"""

import re
import sys
import threading
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
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
    read_json,
    sample_split,
)
from .prompts import TASK_TEMPLATES, Instruction

_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string", bool: "true or false",
               list[str]: "a list of strings", list[int]: "a list of integers",
               tuple[Instruction, ...]: "a list of strings"}


def bounded(default, op: str, low: int, **metadata):
    """A field whose value must be ``op low`` (``>=`` or ``>``); None passes."""
    return field(default=default, metadata={"bound": (op, low), **metadata})


def _admits(kind: type, value: object) -> bool:
    """Whether the JSON ``value`` reads as ``kind``: an int field refuses a
    bool, a float field admits a finite number, an int too if a float can
    hold it, a ``str`` subclass reads a string, and a list or a
    ``tuple[X, ...]`` is a list whose items read as ``X``."""
    if getattr(kind, "__origin__", None) in (list, tuple):
        return type(value) is list and all(_admits(kind.__args__[0], item) for item in value)
    if kind is float:
        # JSON reads Infinity and 1e400 as inf, and NaN as nan; abs() of either is not <= max
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is (str if issubclass(kind, str) else kind)


def from_object(cls: type, data: object, name: str = ""):
    """``cls`` read from the JSON object ``data``, the one check of every
    value a config, state or script file holds. Each field's key is its
    ``metadata["key"]`` or its name; the key of a field without a default
    must be there, and no other key may be. ``name`` is the path of
    ``data`` in its file, "" at the top: a value is named by its path,
    ``<name>.<key>`` or ``<name>[<i>]`` for a list item. An error that
    ``cls`` raises when it is made is named by that path too: a message
    that opens with a key names that field, any other names the object."""
    where = name or "the top level"
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {data!r}")
    keyed = {f.metadata.get("key", f.name): f for f in fields(cls)}
    if unknown := sorted(data.keys() - keyed.keys()):
        raise ConfigurationError(f"{where} holds the unknown key {unknown[0]!r}")
    if missing := [k for k, f in keyed.items() if k not in data and f.default is MISSING is f.default_factory]:
        raise ConfigurationError(f"{where} lacks the key {missing[0]!r}")
    hints = get_type_hints(cls)
    values = {f.name: _read(hints[f.name], data[key], f"{name}.{key}".lstrip("."), f.metadata.get("bound"))
              for key, f in keyed.items() if key in data}
    try:
        return cls(**values)
    except ValueError as exc:
        if not name:
            raise
        joint = "." if str(exc).split(" ", 1)[0] in keyed else ": "
        raise ConfigurationError(f"{name}{joint}{exc}") from exc


def _read(kind: type, value: object, name: str, bound: tuple[str, int] | None = None) -> object:
    """``value`` read as a field of type ``kind`` and bound ``(op, low)``,
    or refused naming it ``name``: ``X | None`` also admits None, an object
    becomes a dataclass, and a list of objects becomes a list of them."""
    kind, *none = kind.__args__ if isinstance(kind, UnionType) else (kind,)
    if value is None and none:
        return None
    if is_dataclass(kind):
        return from_object(kind, value, name)
    if is_dataclass(item := getattr(kind, "__args__", (None,))[0]) and type(value) is list:
        return [from_object(item, v, f"{name}[{i}]") for i, v in enumerate(value)]
    op, low = bound or ("", 0)
    if _admits(kind, value) and (not op or (value > low if op == ">" else value >= low)):
        return value
    want = _KIND_NAMES.get(kind, "a list of objects" if getattr(kind, "__origin__", None) is list else "an object")
    if op:
        want += f" {op} {low}"
    if none:
        want += " or null"
    raise ConfigurationError(f"{name} must be {want}, got {value!r}")


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
    retry_max: int = bounded(5, ">=", 0)
    timeout_s: float = bounded(60.0, ">", 0)
    max_tokens: int = bounded(1024, ">=", 1)
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        # userinfo is never sent (the key goes in APIO_API_KEY) and state.json would keep
        # it on disk; it is looked for first, so that no message below echoes a password
        authority = re.match(r"[^/?#]*//([^/?#]*)", self.base_url)
        if authority and "@" in authority[1]:
            raise ConfigurationError("base_url must hold no user name or password ('user:password@')")
        try:
            url = urlsplit(self.base_url)
            valid = (url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
                     and bool(url.hostname.encode("idna")))
        except ValueError:  # a port that is not a number from 1 to 65535, or a label IDNA refuses
            valid = False
        if not valid:
            raise ConfigurationError(f"base_url must be an http(s) URL with a host, got {self.base_url!r}")
        if "#" in self.base_url:  # a fragment never reaches the endpoint
            raise ConfigurationError(f"base_url must hold no fragment ('#'), got {self.base_url!r}")
        # an HTTP request line carries only printable ASCII; the host goes IDNA-encoded into a header
        if any(c.isspace() or not c.isprintable() for c in self.base_url) or not (url.path + url.query).isascii():
            raise ConfigurationError(
                "base_url must hold no whitespace or control character, and no non-ASCII one in its path"
                f" or query, got {self.base_url!r}"
            )
        if self.timeout_s > threading.TIMEOUT_MAX:  # socket.settimeout overflows past it
            raise ConfigurationError(f"timeout_s must be at most {threading.TIMEOUT_MAX:.0f}, got {self.timeout_s!r}")


# a run needs training pairs for induction and dev pairs for every fitness
@dataclass
class DataConfig:
    format: str = "jsonl"  # jsonl | asset | m2
    path: str | None = None
    source: str | None = None
    references: list[str] = field(default_factory=list)
    train_size: int = bounded(200, ">=", 1)
    dev_size: int = bounded(200, ">=", 1)
    split_seed: int = 0


@dataclass(frozen=True)
class InductionConfig:
    n_instructions: int = bounded(3, ">=", 1)
    n_trials: int = bounded(10, ">=", 1)


@dataclass(frozen=True)
class OptimizerConfig:
    n_epochs: int = bounded(15, ">=", 0)
    beam_b: int = bounded(32, ">=", 1)
    n_permute: int = bounded(2, ">=", 2)
    drift_weight: float = bounded(0.05, ">=", 0, key="lambda")
    improve_samples: int = bounded(4, ">=", 1)
    improve_batch: int = bounded(2, ">=", 1)
    dev_subsample: int | None = bounded(50, ">=", 1)  # None scores on the whole dev split


@dataclass
class RunConfig:
    task: str = "generic"
    seed: int = 0
    backend: BackendConfig = field(default_factory=BackendConfig)
    data: DataConfig = field(default_factory=DataConfig)
    induction: InductionConfig = field(default_factory=InductionConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        if self.task not in TASK_TEMPLATES:
            raise ConfigurationError(
                f"task must be one of {', '.join(TASK_TEMPLATES)}, not the unknown task {self.task!r}"
            )


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Merge file config under CLI overrides on top of defaults."""
    data = {} if path is None else read_json(path)
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
    return from_object(RunConfig, data)


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
