"""Run directory layout, locking, and resumable state.

Each run owns ``<runs_dir>/<run_id>/`` exclusively (an advisory ``flock``
on its ``.lock`` file).
State and history files are written atomically (temp + rename) and
contain no timestamps, so a resumed run reproduces the uninterrupted
run's bytes given the same seed, script/cache, and config. Each epoch
writes the history before the state, so a run stopped between the two
resumes from the state and drops the history's extra epoch.
"""

import fcntl
import json
import os
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .config import ConfigurationError, RunConfig, check_fields


class RunStateError(Exception):
    """Missing, locked, or corrupt run state."""


def _object(cls: type, data: object, name: str):
    """``cls`` made from the JSON object ``data``, which must hold a key
    for each field of ``cls`` without a default, and no other key."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name} must be an object, got {data!r}")
    if unknown := sorted(data.keys() - {f.name for f in fields(cls)}):
        raise ConfigurationError(f"{name} holds the unknown key {unknown[0]!r}")
    if missing := [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]:
        raise ConfigurationError(f"{name} lacks the key {missing[0]!r}")
    return cls(**data)


@dataclass(frozen=True)
class BackendState:
    """``live``, or ``scripted`` from the file ``script`` with its entries ``consumed`` used up."""

    mode: str
    script: str | None = None
    consumed: list[int] | None = None

    def __post_init__(self) -> None:
        check_fields(self, "backend")
        shape = (self.mode, not self.script, self.consumed is None)
        if shape not in (("live", True, True), ("scripted", False, False)):
            raise ConfigurationError("backend must be live, or scripted with a script and consumed entries")


@dataclass
class RunState:
    """The contents of ``state.json``, one field per key; ``config`` and
    ``backend`` may be given as their JSON objects. The optimization
    fields, from ``epoch`` on, are None for a run that is only induced."""

    run_id: str
    phase: str  # induction | optimization | done
    config: RunConfig
    backend: BackendState
    epoch: int | None = None  # epochs completed
    next_id: int | None = None  # id of the next candidate
    pool: list[dict] | None = None
    seed_prompt: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.config, dict):
            self.config = RunConfig.from_dict(self.config)
        if isinstance(self.backend, dict):
            self.backend = _object(BackendState, self.backend, "backend")
        check_fields(self)
        if self.phase not in ("induction", "optimization", "done"):
            raise ConfigurationError(f"phase {self.phase!r} is not induction, optimization or done")
        induced = self.phase == "induction"
        optional = [f.name for f in fields(self) if f.default is None]
        if odd := [name for name in optional if (getattr(self, name) is None) != induced]:
            raise ConfigurationError(f"{odd[0]} must be {'null' if induced else 'set'} in phase {self.phase}")
        if not induced and (self.epoch < 0 or not self.pool):
            raise ConfigurationError("an optimization state holds a negative epoch or an empty pool")


def write_json(path: Path, data) -> None:
    """Write ``data`` to ``path`` as indented, key-sorted UTF-8 JSON,
    atomically: a reader sees the old file or the new one, never a part."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
    tmp.replace(path)


class RunDir:
    def __init__(self, runs_dir: str | Path, run_id: str) -> None:
        self.run_id = run_id
        self.path = Path(runs_dir) / run_id
        self.state_path = self.path / "state.json"
        self.history_path = self.path / "history.json"
        self.prompt_path = self.path / "prompt.txt"
        self.best_prompt_path = self.path / "best_prompt.txt"
        self.trials_path = self.path / "trials.json"
        self.cache_path = self.path / "cache"
        self._lock_path = self.path / ".lock"
        self._lock_fd: int | None = None

    def acquire_lock(self) -> None:
        """Make the run directory and hold an exclusive ``flock`` on its
        ``.lock`` until ``release_lock``. The kernel drops the lock when
        its holder dies, so a killed process leaves nothing to clean up."""
        self.path.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._lock_path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise RunStateError(
                f"run {self.run_id!r} is locked by another process ({self._lock_path})"
            ) from None
        self._lock_fd = fd

    def release_lock(self) -> None:
        # closing the descriptor drops the lock; the file stays for the next holder
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None

    def write_state(self, state: RunState) -> None:
        """Write the fields of ``state`` that are not None."""
        backend = {key: value for key, value in asdict(state.backend).items() if value is not None}
        data = {**asdict(state), "config": state.config.to_dict(), "backend": backend}
        write_json(self.state_path, {key: value for key, value in data.items() if value is not None})

    def _read_json(self, path: Path, name: str):
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise RunStateError(f"no {name} file for run {self.run_id!r} at {path}") from None
        except ValueError as exc:
            raise RunStateError(f"corrupt {name} file {path}: {exc}") from exc

    def read_state(self) -> RunState:
        try:
            return _object(RunState, self._read_json(self.state_path, "state"), "the state")
        except ConfigurationError as exc:
            raise RunStateError(f"state file {self.state_path}: {exc}") from exc

    def write_history(self, history: list[dict]) -> None:
        write_json(self.history_path, {"epochs": history})

    def read_history(self, n_epochs: int) -> list[dict]:
        """The records of epochs 1..``n_epochs``. The history is written
        before the state, so it may hold one epoch more, which is dropped;
        a history short of the state cannot be resumed."""
        history = self._read_json(self.history_path, "history")
        if not isinstance(history, dict) or not isinstance(history.get("epochs"), list):
            raise RunStateError(f"history file {self.history_path} lacks a list of 'epochs'")
        epochs = history["epochs"][:n_epochs]
        if [e.get("epoch") if isinstance(e, dict) else None for e in epochs] != list(range(1, n_epochs + 1)):
            raise RunStateError(
                f"history file {self.history_path} does not hold epochs 1..{n_epochs} of the state"
            )
        return epochs

    def write_json(self, path: Path, data) -> None:
        write_json(path, data)
