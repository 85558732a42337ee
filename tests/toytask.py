"""Synthetic rewrite task used by the end-to-end and determinism tests.

The "LLM" is a script whose inference mode applies bullet instructions of
the form ``Replace "x" with "y".`` literally to the input text. Sources
contain the marker token that the planted instruction rewrites; until the
improve script offers that instruction, the system's outputs keep the
marker and score a nonzero error.
"""

from __future__ import annotations

import json
from pathlib import Path

PLANTED = 'Replace "foo" with "bar".'
DECOY = 'Replace "zz" with "zz".'

SOURCES = [
    "the foo is big",
    "a foo in a box",
    "foo here now",
    "one foo two foo",
    "my foo likes tea",
    "this foo that foo",
    "foo goes home",
    "every foo counts",
    "no foo no cry",
    "foo on the mat",
    "the last foo wins",
    "a quiet foo sleeps",
]


def write_dataset(path: Path) -> None:
    rows = [
        {"id": f"toy-{i}", "source": src, "references": [src.replace("foo", "bar")]}
        for i, src in enumerate(SOURCES)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def script_entries(planted_offset: int = 2, improve_samples: int = 4) -> list[dict]:
    """Script serving induction, improve, rephrase, and inference traffic.

    Epoch 1's improve samples carry the tags from ``improve_samples`` on:
    the planted instruction answers the one at ``improve_samples +
    planted_offset``, and no-op instructions answer those before it. Any
    other improve request gets the untagged no-op fallback.
    """
    entries: list[dict] = [
        {"match": "Could you give an instruction", "response": DECOY},
    ]
    improves = [f'<new_instruction>Replace "q{i}" with "q{i}".</new_instruction>' for i in range(planted_offset)]
    improves.append(f"<new_instruction>{PLANTED}</new_instruction>")
    entries.extend(
        {"match": "Suggest new instruction", "response": r, "attempt_tag": improve_samples + i}
        for i, r in enumerate(improves)
    )
    entries.append(
        {"match": "Suggest new instruction", "response": '<new_instruction>Replace "pad" with "pad".</new_instruction>'}
    )
    entries.append({"match": "Generate a variation", "mode": "echo_instruction"})
    entries.append({"match": "\nOutput:", "mode": "rewrite_rules"})
    return entries


def write_script(path: Path, **kwargs) -> None:
    path.write_text(json.dumps(script_entries(**kwargs), indent=2) + "\n", encoding="utf-8")


def write_config(
    path: Path,
    data_path: Path,
    n_epochs: int = 15,
    beam_b: int = 32,
    seed: int = 7,
    n_trials: int = 2,
    n_instructions: int = 2,
) -> None:
    cfg = {
        "task": "generic",
        "seed": seed,
        "data": {
            "format": "jsonl",
            "path": str(data_path),
            "train_size": 4,
            "dev_size": 8,
            "split_seed": 1,
        },
        "induction": {"n_instructions": n_instructions, "n_trials": n_trials},
        "optimizer": {
            "n_epochs": n_epochs,
            "beam_b": beam_b,
            "n_permute": 2,
            "lambda": 0.05,
            "improve_samples": 4,
            "improve_batch": 2,
            "dev_subsample": "all",
        },
    }
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")


def make_workspace(root: Path, **config_kwargs) -> dict[str, Path]:
    root.mkdir(parents=True, exist_ok=True)
    paths = {
        "data": root / "data.jsonl",
        "script": root / "script.json",
        "config": root / "config.json",
        "runs": root / "runs",
    }
    write_dataset(paths["data"])
    write_script(paths["script"])
    write_config(paths["config"], paths["data"], **config_kwargs)
    return paths
