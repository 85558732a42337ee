"""Golden run files: the SHA-256 digests of a scripted toy run's files.

C5 and C8 compare two runs made in one test, so they miss a change that
alters both alike; this table pins the bytes themselves, on every Python
that CI runs. A change that alters the run files on purpose replaces
``tests/data/golden_run.json`` with the table that the failure prints, and
says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from apio.cli import main
from toytask import SOURCES, make_workspace

GOLDEN = Path(__file__).parent / "data" / "golden_run.json"
RUN_FILES = ("prompt.txt", "trials.json", "history.json", "best_prompt.txt", "final_report.json", "state.json")


def _digests(root: Path, workers: tuple[str, ...]) -> dict[str, str]:
    """The digests of ``induce`` + ``optimize`` + ``infer --prompt best_prompt.txt``
    over the toy sources, all scripted, in a workspace at ``root``."""
    paths = make_workspace(root, n_epochs=3, beam_b=6, n_trials=4)
    sources, predictions = root / "sources.txt", root / "predictions.txt"
    sources.write_text("".join(f"{source}\n" for source in SOURCES), encoding="utf-8")
    common = ["--config", str(paths["config"]), "--script", str(paths["script"]), *workers]
    run_args = [*common, "--run-id", "r", "--runs-dir", str(paths["runs"])]
    run = paths["runs"] / "r"
    assert main(["induce", *run_args]) == 0
    assert main(["optimize", *run_args]) == 0
    assert main(["infer", *common, "--prompt", str(run / "best_prompt.txt"),
                 "--input", str(sources), "--output", str(predictions)]) == 0
    files = {name: (run / name).read_bytes() for name in RUN_FILES}
    # state.json names the config, data and script files by absolute path
    files["state.json"] = files["state.json"].replace(str(root).encode("utf-8"), b"<workspace>")
    files["predictions.txt"] = predictions.read_bytes()
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@pytest.mark.parametrize("workers", [("--workers", "1"), ()], ids=["workers-1", "default-workers"])
def test_a_scripted_run_writes_the_golden_files(tmp_path, no_network, workers):
    digests = _digests(tmp_path, workers)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    differ = [name for name in sorted(digests.keys() | golden.keys()) if digests.get(name) != golden.get(name)]
    assert not differ, f"{', '.join(differ)} differ from {GOLDEN.name}; the new table:\n{json.dumps(digests, indent=2)}"
