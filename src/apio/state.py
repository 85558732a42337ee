"""Run directory layout, locking, and resumable state.

Each run owns ``<runs_dir>/<run_id>/`` exclusively (an advisory ``flock``
on its ``.lock`` file).
State and history files are written atomically (temp + rename) and
contain no timestamps, so a resumed run reproduces the uninterrupted
run's bytes given the same seed, script/cache, and config. Each epoch
writes the history before the state, so a run stopped between the two
resumes from the state and drops the history's extra epoch.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path


class RunStateError(Exception):
    """Missing, locked, or corrupt run state."""


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

    def create(self, force: bool = False) -> None:
        if self.state_path.exists() and not force:
            raise RunStateError(
                f"run {self.run_id!r} already exists at {self.path}; use --force to overwrite"
            )
        self.path.mkdir(parents=True, exist_ok=True)

    def acquire_lock(self) -> None:
        """Hold an exclusive ``flock`` on ``.lock`` until ``release_lock``.
        The kernel drops the lock when its holder dies, so a killed
        process leaves nothing to clean up."""
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

    def write_state(self, state: dict) -> None:
        write_json(self.state_path, state)

    def read_state(self) -> dict:
        if not self.state_path.exists():
            raise RunStateError(f"no state file for run {self.run_id!r} at {self.state_path}")
        try:
            state = json.loads(self.state_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise RunStateError(f"corrupt state file {self.state_path}: {exc}") from exc
        for key in ("run_id", "phase", "config"):
            if not isinstance(state, dict) or key not in state:
                raise RunStateError(f"state file {self.state_path} lacks key {key!r}")
        return state

    def write_history(self, history: list[dict]) -> None:
        write_json(self.history_path, {"epochs": history})

    def read_history(self, n_epochs: int) -> list[dict]:
        """The records of epochs 1..``n_epochs``. The history is written
        before the state, so it may hold one epoch more, which is dropped;
        a history short of the state cannot be resumed."""
        try:
            history = json.loads(self.history_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise RunStateError(f"no history file for run {self.run_id!r} at {self.history_path}") from None
        except ValueError as exc:
            raise RunStateError(f"corrupt history file {self.history_path}: {exc}") from exc
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
