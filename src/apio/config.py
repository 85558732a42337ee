"""Run configuration: built-in defaults < config file < CLI flags.

The resolved snapshot is persisted with every run so any deviation from
defaults stays auditable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from urllib.parse import urlsplit

from .corpus import (
    ConfigurationError,
    SamplePair,
    load_asset,
    load_jsonl,
    load_m2,
    reference_texts,
    sample_split,
)
from .induction import InductionConfig
from .optimizer import OptimizerConfig
from .prompts import TASK_TEMPLATES


@dataclass
class BackendConfig:
    base_url: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"
    retry_max: int = 5
    timeout_s: float = 60.0
    max_tokens: int = 1024
    cache_dir: str | None = None

    def __post_init__(self) -> None:
        try:
            url = urlsplit(str(self.base_url))
            valid = url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
        except ValueError:  # a port that is not a number from 1 to 65535
            valid = False
        if not valid:
            raise ValueError(f"backend.base_url must be an http(s) URL with a host, got {self.base_url!r}")
        if self.retry_max < 0:
            raise ValueError(f"backend.retry_max must be >= 0, got {self.retry_max}")
        if not self.timeout_s > 0:
            raise ValueError(f"backend.timeout_s must be > 0, got {self.timeout_s}")
        if self.max_tokens < 1:
            raise ValueError(f"backend.max_tokens must be >= 1, got {self.max_tokens}")


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
        # induction needs training pairs and every fitness needs dev pairs
        for name in ("train_size", "dev_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"data.{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class RunConfig:
    task: str = "generic"
    seed: int = 0
    backend: BackendConfig = field(default_factory=BackendConfig)
    data: DataConfig = field(default_factory=DataConfig)
    induction: InductionConfig = field(default_factory=InductionConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def to_dict(self) -> dict:
        out = asdict(self)
        # external key for the drift weight is "lambda"
        out["optimizer"]["lambda"] = out["optimizer"].pop("drift_weight")
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        task = data.get("task", "generic")
        if task not in TASK_TEMPLATES:
            raise ConfigurationError(f"unknown task {task!r}")
        opt = dict(data.get("optimizer", {}))
        if "lambda" in opt:
            opt["drift_weight"] = opt.pop("lambda")
        dev_sub = opt.get("dev_subsample")
        if dev_sub == "all":
            opt["dev_subsample"] = None
        ind = dict(data.get("induction", {}))
        try:
            return cls(
                task=task,
                seed=data.get("seed", 0),
                backend=BackendConfig(**data.get("backend", {})),
                data=DataConfig(**data.get("data", {})),
                induction=InductionConfig(**ind),
                optimizer=OptimizerConfig(**opt),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid configuration: {exc}") from exc


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Merge file config under CLI overrides on top of defaults."""
    data: dict = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigurationError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        node = data
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    cfg = RunConfig.from_dict(data)
    # seeds propagate from the run seed unless set explicitly
    if "seed" not in (data.get("induction") or {}):
        cfg.induction = replace(cfg.induction, seed=cfg.seed)
    if "seed" not in (data.get("optimizer") or {}):
        cfg.optimizer = replace(cfg.optimizer, seed=cfg.seed)
    return cfg


def load_pairs(data: DataConfig) -> list[SamplePair]:
    """Materialize the configured dataset as sample pairs."""
    if data.format == "jsonl":
        if not data.path:
            raise ConfigurationError("data.path is required for jsonl format")
        return load_jsonl(data.path)
    if data.format == "asset":
        if not data.source or not data.references:
            raise ConfigurationError("data.source and data.references are required for asset format")
        return load_asset(data.source, data.references)
    if data.format == "m2":
        if not data.path:
            raise ConfigurationError("data.path is required for m2 format")
        records = load_m2(data.path)
        return [
            SamplePair(id=f"m2-{i}", source=r.source_text(), references=tuple(reference_texts(r)))
            for i, r in enumerate(records)
        ]
    raise ConfigurationError(f"unknown data format {data.format!r}")


def split_pairs(cfg: RunConfig) -> tuple[list[SamplePair], list[SamplePair]]:
    return sample_split(load_pairs(cfg.data), cfg.data.train_size, cfg.data.dev_size, cfg.data.split_seed)
