"""Run directory layout, locking, and resumable state.

Each run owns ``<runs_dir>/<run_id>/`` exclusively (an advisory ``flock``
on its ``.lock`` file).
Its JSON and prompt files are written atomically (temp + rename) and
contain no timestamps, so a resumed run reproduces the uninterrupted
run's bytes given the same seed, script/cache, and config. Each epoch
writes the history before the state, so a run stopped between the two
resumes from the state and drops the history's extra epoch.
"""

import fcntl
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .config import ConfigurationError, RunConfig, bounded, from_object, to_object
from .corpus import read_json
from .optimizer import Candidate


@dataclass(frozen=True)
class BackendState:
    """``live``, or ``scripted`` from the file ``script`` with its entries ``consumed`` used up."""

    mode: str
    script: str | None = None
    consumed: list[int] | None = None

    def __post_init__(self) -> None:
        shape = (self.mode, not self.script, self.consumed is None)
        if shape not in (("live", True, True), ("scripted", False, False)):
            raise ConfigurationError("mode must be live, or scripted with a script and consumed entries")


@dataclass
class RunState:
    """The contents of ``state.json``, one field per key. The optimization
    fields, from ``epoch`` on, are None for a run that is only induced."""

    run_id: str
    phase: str  # induction | optimization | done
    config: RunConfig
    backend: BackendState
    epoch: int | None = bounded(None, ">=", 0)  # epochs completed
    next_id: int | None = None  # id of the next candidate
    pool: list[Candidate] | None = None  # the beam, best first
    seed_prompt: str | None = None

    def __post_init__(self) -> None:
        if self.phase not in ("induction", "optimization", "done"):
            raise ConfigurationError(f"phase must be induction, optimization or done, got {self.phase!r}")
        induced = self.phase == "induction"
        optional = [f.name for f in fields(self) if f.default is None]
        if odd := [name for name in optional if (getattr(self, name) is None) != induced]:
            raise ConfigurationError(f"{odd[0]} must be {'null' if induced else 'set'} in phase {self.phase}")
        if not induced and not self.pool:
            raise ConfigurationError(f"pool must hold a candidate in phase {self.phase}")


def write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, atomically: a reader sees the
    old file or the new one, never a part. A write that fails leaves no
    temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
    except BaseException:
        if tmp.is_file():
            tmp.unlink()
        raise


def write_json(path: Path, data) -> None:
    """Write ``data`` to ``path`` as indented, key-sorted JSON, atomically."""
    write_text(path, json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


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
            raise ConfigurationError(
                f"run {self.run_id!r} is locked by another process ({self._lock_path})"
            ) from None
        self._lock_fd = fd

    def release_lock(self) -> None:
        # closing the descriptor drops the lock; the file stays for the next holder
        if self._lock_fd is not None:
            os.close(self._lock_fd)
            self._lock_fd = None

    def write_state(self, state: RunState) -> None:
        """Write the fields of ``state``, and of its backend, that are not None."""
        data = to_object(state)
        data["backend"] = {key: value for key, value in data["backend"].items() if value is not None}
        write_json(self.state_path, {key: value for key, value in data.items() if value is not None})

    def read_state(self) -> RunState:
        data = read_json(self.state_path)
        try:
            return from_object(RunState, data)
        except ValueError as exc:  # a ConfigurationError, or a PromptError of a pool prompt
            raise ConfigurationError(f"state file {self.state_path}: {exc}") from exc

    def write_history(self, history: list[dict]) -> None:
        write_json(self.history_path, {"epochs": history})

    def read_history(self, n_epochs: int) -> list[dict]:
        """The records of epochs 1..``n_epochs``. The history is written
        before the state, so it may hold one epoch more, which is dropped;
        a history short of the state cannot be resumed."""
        history = read_json(self.history_path)
        if not isinstance(history, dict) or not isinstance(history.get("epochs"), list):
            raise ConfigurationError(f"history file {self.history_path} lacks a list of 'epochs'")
        epochs = history["epochs"][:n_epochs]
        if [e.get("epoch") if isinstance(e, dict) else None for e in epochs] != list(range(1, n_epochs + 1)):
            raise ConfigurationError(
                f"history file {self.history_path} does not hold epochs 1..{n_epochs} of the state"
            )
        return epochs

    def write_json(self, path: Path, data) -> None:
        write_json(path, data)
