from __future__ import annotations

import contextlib
import errno
import fcntl
import functools
import hashlib
import importlib
import itertools
import json
import logging
import os
import pkgutil
import random
import re
import shutil
import signal
import socket
import sqlite3
import subprocess
import sys
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest

import apio
from apio import gateway
from apio.cli import DEFAULT_WORKERS, entrypoint, main
from apio.config import ConfigurationError, OptimizerConfig, RunConfig, from_object, load_config, to_object
from apio.corpus import apply_edits, load_m2
from apio.gateway import INFER, CredentialError, GatewayError, ScriptedBackend, ScriptEntry
from apio.optimizer import Candidate, PromptOptimizer
from apio.prompts import GENERIC_TEMPLATE, Prompt
from apio.state import BackendState, RunDir, RunState
from conftest import Reply, answered_by, completion, rewrite_backend
from m2gen import random_record, serialize_m2
from toytask import PLANTED, SOURCES, make_workspace, script_entries, write_config

INDUCE_MATCH = "Could you give an instruction"
SRC = Path(apio.__file__).resolve().parents[1]


def _induce(paths, run_id="r1", extra=()) -> int:
    return main(
        [
            "induce",
            "--config", str(paths["config"]),
            "--run-id", run_id,
            "--runs-dir", str(paths["runs"]),
            "--script", str(paths["script"]),
            *extra,
        ]
    )


def _optimize(paths, run_id="r1", extra=()) -> int:
    return main(
        [
            "optimize",
            "--config", str(paths["config"]),
            "--run-id", run_id,
            "--runs-dir", str(paths["runs"]),
            "--script", str(paths["script"]),
            *extra,
        ]
    )


# -- induce -------------------------------------------------------------------


def test_induce_writes_prompt_and_reports(tmp_path, no_network):
    paths = make_workspace(tmp_path, n_epochs=3)
    assert _induce(paths) == 0
    run = paths["runs"] / "r1"
    prompt_text = (run / "prompt.txt").read_text(encoding="utf-8")
    assert prompt_text.count("* ") == 2
    assert prompt_text.endswith("Input: {input_text}\nOutput:\n")
    trials = json.loads((run / "trials.json").read_text(encoding="utf-8"))["trials"]
    assert len(trials) == 2
    state = json.loads((run / "state.json").read_text(encoding="utf-8"))
    assert state["phase"] == "induction"
    assert state["config"]["optimizer"]["lambda"] == 0.05
    assert no_network["n"] == 0


def test_induce_refuses_existing_run_id(tmp_path, no_network):
    paths = make_workspace(tmp_path)
    assert _induce(paths) == 0
    assert _induce(paths) == 2
    assert _induce(paths, extra=("--force",)) == 0


def test_a_run_that_starts_over_removes_the_files_of_the_run_it_replaces(tmp_path, monkeypatch):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    run = paths["runs"] / "r1"
    results = ("history.json", "best_prompt.txt", "final_report.json")
    assert _induce(paths) == 0 and _optimize(paths) == 0
    assert all((run / name).exists() for name in results)
    # a new induction leaves no file of the optimization it replaces
    assert _induce(paths, extra=("--force",)) == 0
    assert not any((run / name).exists() for name in results)
    assert _optimize(paths) == 0
    # a fresh optimization keeps its own history, but no result of the run it replaces
    assert _optimize(paths, extra=("--force", "--stop-after-epoch", "1")) == 0
    assert json.loads((run / "state.json").read_text(encoding="utf-8"))["epoch"] == 1
    assert [(run / name).exists() for name in results] == [True, False, False]
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 0
    assert all((run / name).exists() for name in results)
    # a fresh optimization killed after its epoch-0 state, with the results
    # of the run it replaces still beside that state: the next state write,
    # a resume's, removes them
    class Killed(BaseException):
        pass

    def killed(*args):
        raise Killed

    monkeypatch.setattr(PromptOptimizer, "run_epoch", killed)
    with pytest.raises(Killed):
        _optimize(paths, extra=("--force",))
    monkeypatch.undo()
    state = json.loads((run / "state.json").read_text(encoding="utf-8"))
    assert (state["phase"], state["epoch"]) == ("optimization", 0)
    for name in results[1:]:
        (run / name).write_text("of the run replaced\n", encoding="utf-8")
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"]), "--stop-after-epoch", "1"]) == 0
    assert json.loads((run / "state.json").read_text(encoding="utf-8"))["epoch"] == 1
    assert [(run / name).exists() for name in results] == [True, False, False]


def _written_as_the_lock_is_taken(monkeypatch, state: bytes) -> None:
    """Have another process write ``state`` as a run's state just before a
    command takes the run's lock."""
    acquire_lock = RunDir.acquire_lock

    def finished_first(run_dir):
        run_dir.path.mkdir(parents=True, exist_ok=True)
        run_dir.state_path.write_bytes(state)
        acquire_lock(run_dir)

    monkeypatch.setattr(RunDir, "acquire_lock", finished_first)


# the exit code of a command that starts a phase, over each state its run
# holds: (induce, induce --force, optimize, optimize --force). A fresh
# optimize goes on from an induced state; without --force, no command
# replaces any other state
REPLACE_RULE = {
    "none": (0, 0, 0, 0),
    "induction": (2, 0, 0, 0),
    "optimization": (2, 0, 2, 0),
    "done": (2, 0, 2, 0),
    # another process finishes the run between the command's start and its lock
    "done-as-the-lock-is-taken": (2, 0, 2, 0),
}


@pytest.mark.parametrize("force", [False, True], ids=["without-force", "force"])
@pytest.mark.parametrize("command", ["induce", "optimize"])
@pytest.mark.parametrize("existing", list(REPLACE_RULE))
def test_a_command_replaces_the_state_of_its_run_by_one_rule(tmp_path, monkeypatch, capsys, existing, command, force):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    run = paths["runs"] / "r1"
    assert _induce(paths) == 0
    prompt = shutil.copy(run / "prompt.txt", tmp_path / "prompt.txt")
    if existing.startswith(("optimization", "done")):
        assert _optimize(paths, extra=("--stop-after-epoch", "1") if existing == "optimization" else ()) == 0
    state = (run / "state.json").read_bytes()
    if existing in ("none", "done-as-the-lock-is-taken"):
        shutil.rmtree(run)
    if existing == "done-as-the-lock-is-taken":
        _written_as_the_lock_is_taken(monkeypatch, state)
    capsys.readouterr()
    extra = ("--force",) if force else ()
    if command == "induce":
        code = _induce(paths, extra=extra)
    else:
        code = _optimize(paths, extra=("--prompt", str(prompt), *extra))
    assert code == REPLACE_RULE[existing][2 * (command == "optimize") + force]
    if code == 2:
        assert capsys.readouterr().err == f"error: run 'r1' already exists at {run}; --force overwrites it\n"
        assert (run / "state.json").read_bytes() == state


def test_a_resume_refuses_a_state_replaced_before_it_took_the_lock(tmp_path, monkeypatch, capsys):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    run = paths["runs"] / "r1"
    assert _induce(paths) == 0
    assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
    files = {name: (run / name).read_bytes() for name in ("state.json", "history.json")}
    # the state of another process that starts the run over at another seed
    assert _optimize(paths, extra=("--force", "--seed", "8", "--stop-after-epoch", "1")) == 0
    replaced = (run / "state.json").read_bytes()
    for name, data in files.items():
        (run / name).write_bytes(data)
    _written_as_the_lock_is_taken(monkeypatch, replaced)
    capsys.readouterr()
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 2
    assert capsys.readouterr().err == "error: run 'r1' changed before its resume took the lock; resume it again\n"
    assert (run / "state.json").read_bytes() == replaced


def test_induce_missing_dataset_path_exits_2(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text())
    config["data"]["path"] = str(tmp_path / "missing.jsonl")
    paths["config"].write_text(json.dumps(config))
    assert _induce(paths, run_id="r2") == 2
    assert "missing.jsonl" in capsys.readouterr().err


def _asset_config(paths, references: list[Path]) -> None:
    """Point the workspace's config at the toy sources as asset files: the
    source file ``<root>/source.txt`` and the given reference files."""
    rows = [json.loads(line) for line in paths["data"].read_text(encoding="utf-8").splitlines()]
    source = paths["data"].with_name("source.txt")
    source.write_text("".join(r["source"] + "\n" for r in rows), encoding="utf-8")
    for path in references:
        path.write_text("".join(r["references"][0] + "\n" for r in rows), encoding="utf-8")
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["data"].update(format="asset", path=None, source=str(source), references=[str(p) for p in references])
    paths["config"].write_text(json.dumps(config), encoding="utf-8")


def test_induce_reads_asset_data(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    _asset_config(paths, [])
    assert _induce(paths) == 2
    assert "data.source and data.references are required for asset format" in capsys.readouterr().err
    assert not paths["runs"].exists()
    _asset_config(paths, [tmp_path / "ref.txt"])
    assert _induce(paths) == 0
    trials = json.loads((paths["runs"] / "r1" / "trials.json").read_text(encoding="utf-8"))["trials"]
    assert all(t["fitness"] is not None and t["pair_ids"][0].startswith("asset-") for t in trials)


def test_induce_non_object_jsonl_line_exits_2_naming_it(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    with paths["data"].open("a", encoding="utf-8") as handle:
        handle.write("5\n")
    n_lines = len(paths["data"].read_text(encoding="utf-8").splitlines())
    assert _induce(paths) == 2
    assert f"{paths['data']}:{n_lines}: expected an object" in capsys.readouterr().err
    assert not (paths["runs"] / "r1").exists()


def test_induce_scoring_failure_fails_only_that_trial(tmp_path):
    paths = make_workspace(tmp_path, n_trials=2, n_instructions=1)
    # trial 1 (tag 2) induces "Rule two." and no script entry answers its inference
    paths["script"].write_text(json.dumps([
        {"match": INDUCE_MATCH, "response": "Rule one.", "attempt_tag": 0},
        {"match": INDUCE_MATCH, "response": "Rule two."},
        {"match": "* Rule one.\n", "mode": "rewrite_rules"},
    ]))
    assert _induce(paths) == 0
    run = paths["runs"] / "r1"
    trials = json.loads((run / "trials.json").read_text())["trials"]
    assert trials[0]["error"] is None and trials[0]["fitness"] is not None
    assert "no script entry" in trials[1]["error"]
    assert trials[1]["fitness"] is None
    assert trials[1]["instructions"] == ["Rule two."]
    assert (run / "prompt.txt").read_text().startswith("* Rule one.\n")


@pytest.mark.parametrize("workers", ["1", "8"])
def test_induce_counts_each_trials_requests(tmp_path, workers):
    paths = make_workspace(tmp_path, n_trials=4, n_instructions=1)
    # trial 0's one induce answer (tag 0) is only quotes, no entry answers
    # trial 1's (tag 2) inference, and trials 2 and 3 score on all 8 dev pairs
    paths["script"].write_text(json.dumps([
        {"match": INDUCE_MATCH, "response": '""', "attempt_tag": 0},
        {"match": INDUCE_MATCH, "response": "Rule two.", "attempt_tag": 2},
        {"match": INDUCE_MATCH, "response": "Rule one."},
        {"match": "* Rule one.\n", "mode": "rewrite_rules"},
    ]))
    assert _induce(paths, extra=("--workers", workers)) == 0
    trials = json.loads((paths["runs"] / "r1" / "trials.json").read_text())["trials"]
    assert [t["backend_calls"] for t in trials] == [1, 9, 9, 9]
    assert [t["fitness"] is not None for t in trials] == [False, False, True, True]
    assert [t["error"] is None for t in trials] == [False, False, True, True]


def test_induce_exhausted_script_is_engine_failure(tmp_path):
    paths = make_workspace(tmp_path)
    paths["script"].write_text(json.dumps([{"match": "never matches", "response": "x"}]))
    assert _induce(paths, run_id="r3") == 1


def test_induce_whose_every_trial_fails_exits_1_and_writes_no_run_file(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    paths["script"].write_text(json.dumps([{"match": INDUCE_MATCH, "response": '""'}]))
    assert _induce(paths) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "engine failure: all induction trials failed"
    assert [path.name for path in (paths["runs"] / "r1").iterdir()] == [".lock"]


def test_locked_run_dir_is_refused(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    lock = paths["runs"] / "r1" / ".lock"
    lock.parent.mkdir(parents=True)
    with open(lock, "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        assert _induce(paths) == 2
    assert "locked" in capsys.readouterr().err
    assert _induce(paths) == 0  # the file left behind holds no lock


def test_lock_of_killed_process_is_reclaimed(tmp_path, capsys):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths) == 0
    assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
    take_lock = (
        "import sys, time\n"
        "from apio.state import RunDir\n"
        "RunDir(sys.argv[1], 'r1').acquire_lock()\n"
        "print('held', flush=True)\n"
        "time.sleep(60)\n"
    )
    holder = subprocess.Popen(
        [sys.executable, "-c", take_lock, str(paths["runs"])],
        stdout=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    resume = ["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]
    try:
        assert holder.stdout.readline() == "held\n"
        assert main(resume) == 2
        assert "locked" in capsys.readouterr().err
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=10)
        holder.stdout.close()
    assert holder.returncode == -signal.SIGKILL
    assert main(resume) == 0
    state = json.loads((paths["runs"] / "r1" / "state.json").read_text(encoding="utf-8"))
    assert (state["phase"], state["epoch"]) == ("done", 2)


@pytest.mark.parametrize(
    "broken",
    [
        "history-without-epochs",
        "truncated-history",
        "history-missing",
        "history-behind-state",
        "history-of-other-epochs",
        "state-without-pool",
        "state-pool-entry-without-prompt",
        "state-pool-fitness-a-string",
        "state-pool-id-a-string",
        "state-pool-prompt-without-instructions",
        "state-pool-prompt-header-a-number",
        "state-pool-instructions-a-string",
        "state-not-an-object",
        "state-backend-without-mode",
        "state-epoch-not-an-int",
        "state-negative-epoch",
        "state-seed-prompt-not-a-string",
        "state-next-id-not-an-int",
        "state-empty-pool",
        "state-epoch-a-boolean",
        "state-next-id-a-boolean",
        "state-unknown-key",
        "state-unknown-phase",
        "state-without-backend",
        "script-entry-without-match",
        "script-not-a-list",
        "script-unknown-mode",
        "script-holding-sticky",
        "script-attempt-tag-not-an-int",
        "script-unknown-key",
        "state-with-consumed",
    ],
)
def test_malformed_run_files_exit_2_and_release_lock(tmp_path, capsys, broken):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths) == 0
    assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
    run = paths["runs"] / "r1"
    history, state = run / "history.json", run / "state.json"
    if broken == "history-without-epochs":
        history.write_text("{}", encoding="utf-8")
    elif broken == "truncated-history":
        text = history.read_text(encoding="utf-8")
        history.write_text(text[: len(text) // 2], encoding="utf-8")
    elif broken == "history-missing":
        history.unlink()
    elif broken.startswith("history"):
        # the state is at epoch 1: its record is dropped, or renumbered
        data = json.loads(history.read_text(encoding="utf-8"))
        data["epochs"] = [] if broken == "history-behind-state" else [{**data["epochs"][0], "epoch": 2}]
        history.write_text(json.dumps(data), encoding="utf-8")
    elif broken == "state-not-an-object":
        state.write_text("5", encoding="utf-8")
    elif broken.startswith("script"):
        # the resumed run loads the script that its state names
        entries = json.loads(paths["script"].read_text(encoding="utf-8"))
        paths["script"].write_text(json.dumps({
            "script-entry-without-match": [*entries, {"response": "x"}],
            "script-not-a-list": "a string",
            "script-unknown-mode": [*entries, {"match": "x", "mode": "shout"}],
            # a script of the old shape is refused, not read with another meaning
            "script-holding-sticky": [*entries, {"match": "x", "sticky": True}],
            "script-attempt-tag-not-an-int": [*entries, {"match": "x", "attempt_tag": "4"}],
            "script-unknown-key": [*entries, {"match": "x", "stiky": True}],
        }[broken]), encoding="utf-8")
    else:
        data = json.loads(state.read_text(encoding="utf-8"))
        if broken in ("state-without-pool", "state-without-backend"):
            del data[broken.split("-")[-1]]
        elif broken == "state-pool-entry-without-prompt":
            del data["pool"][0]["prompt"]
        elif broken in ("state-pool-fitness-a-string", "state-pool-id-a-string"):
            data["pool"][0][broken.split("-")[2]] = "a"
        elif broken == "state-pool-prompt-without-instructions":
            data["pool"][0]["prompt"]["instructions"] = []
        elif broken == "state-pool-prompt-header-a-number":
            data["pool"][0]["prompt"]["header"] = 5
        elif broken == "state-pool-instructions-a-string":
            data["pool"][0]["prompt"]["instructions"] = "Fix it."
        else:
            key, value = {
                "state-backend-without-mode": ("backend", {}),
                "state-epoch-not-an-int": ("epoch", "1"),
                "state-negative-epoch": ("epoch", -1),
                "state-seed-prompt-not-a-string": ("seed_prompt", 5),
                "state-next-id-not-an-int": ("next_id", "x"),
                "state-empty-pool": ("pool", []),
                "state-epoch-a-boolean": ("epoch", True),
                "state-next-id-a-boolean": ("next_id", True),
                "state-unknown-key": ("epochs", 1),
                "state-unknown-phase": ("phase", "tuning"),
                # the old shape, which recorded the script entries used up
                "state-with-consumed": ("backend", {**data["backend"], "consumed": [1, 2]}),
            }[broken]
            data[key] = value
        state.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 2
    named = {"state": state, "script": paths["script"]}.get(broken.split("-")[0], history)
    err = capsys.readouterr().err
    assert str(named) in err
    assert broken != "script-unknown-key" or "unknown key 'stiky'" in err
    appended = f"entry {len(script_entries())}"
    assert broken != "script-holding-sticky" or f"{appended} holds the unknown key 'sticky'" in err
    assert broken != "script-attempt-tag-not-an-int" or f"{appended}.attempt_tag must be an integer or null" in err
    assert broken != "state-with-consumed" or "backend holds the unknown key 'consumed'" in err
    assert broken != "state-pool-prompt-header-a-number" or "pool[0].prompt.header must be a string" in err
    lock = RunDir(paths["runs"], "r1")
    lock.acquire_lock()  # nothing holds the run any more
    lock.release_lock()


# (file, dotted key, value, the whole message): a bad value read from a
# config file, a state or a script is named once, by its path in that file
NAMED_BY_PATH = [
    ("config", "optimizer.beam_b", "5", "optimizer.beam_b must be an integer >= 1, got '5'"),
    ("state", "config.optimizer.beam_b", "5", "config.optimizer.beam_b must be an integer >= 1, got '5'"),
    ("state", "config.backend.base_url", "ftp://x",
     "config.backend.base_url must be an http(s) URL with a host, got 'ftp://x'"),
    ("state", "config.task", "bogus",
     "config.task must be one of gec, simplify, generic, not the unknown task 'bogus'"),
    ("state", "pool.0.prompt.instructions", "Fix it.",
     "pool[0].prompt.instructions must be a list of strings, got 'Fix it.'"),
    ("state", "pool.0.prompt.footer", 5, "pool[0].prompt.footer must be a string, got 5"),
    ("state", "pool.0.prompt.footer", "Output:",
     "pool[0].prompt: prompt footer must contain the '{input_text}' slot exactly once"),
    ("state", "backend.mode", "shout", "backend.mode must be live with no script, or scripted with one"),
    ("state", "phase", "tuning", "phase must be induction, optimization or done, got 'tuning'"),
    ("script", "mode", "shout",
     f"entry {len(script_entries())}.mode must be one of literal, rewrite_rules, echo_instruction, got 'shout'"),
    # the section seeds of the old shape: every draw derives from the run seed
    ("config", "induction.seed", 3, "induction holds the unknown key 'seed'"),
    ("config", "optimizer.seed", 3, "optimizer holds the unknown key 'seed'"),
    ("state", "config.induction.seed", 0, "config.induction holds the unknown key 'seed'"),
    ("state", "config.optimizer.seed", 0, "config.optimizer holds the unknown key 'seed'"),
]


@pytest.mark.parametrize(("file", "key", "value", "message"),
                         [pytest.param(*case, id=f"{case[0]}-{case[1]}={case[2]}") for case in NAMED_BY_PATH])
def test_bad_value_exits_2_named_by_its_path(tmp_path, capsys, file, key, value, message):
    if file == "config":
        assert _run_with_config_value(tmp_path, "induce", key, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths) == 0
    assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
    if file == "state":
        named = paths["runs"] / "r1" / "state.json"
        data = json.loads(named.read_text(encoding="utf-8"))
        *parents, leaf = key.split(".")
        node = data
        for part in parents:
            node = node[int(part) if part.isdigit() else part]
        node[leaf] = value
    else:  # an entry appended to the script that the resumed run loads
        named = paths["script"]
        data = [*json.loads(named.read_text(encoding="utf-8")), {"match": "x", key: value}]
    named.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {file} file {named}: {message}\n"


@pytest.mark.parametrize("flag", ["--config", "--task", "--seed", "--dev-subsample", "--prompt", "--run-id", "--force"])
def test_resume_refuses_the_flags_it_takes_from_the_state(tmp_path, capsys, flag):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths) == 0
    assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
    run = paths["runs"] / "r1"
    files = {path: path.read_bytes() for path in run.iterdir()}
    value = {
        "--config": [str(paths["config"])],
        "--task": ["gec"],
        "--seed": ["0"],
        "--dev-subsample": ["2"],
        "--prompt": [str(run / "prompt.txt")],
        "--run-id": ["r1"],
        "--force": [],
    }[flag]
    capsys.readouterr()
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"]), flag, *value]) == 2
    assert f"drop {flag}" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in run.iterdir()} == files


def test_resume_of_an_induced_run_exits_2(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    assert _induce(paths) == 0
    run = paths["runs"] / "r1"
    files = {path: path.read_bytes() for path in run.iterdir() if path.is_file()}
    capsys.readouterr()
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 2
    assert capsys.readouterr().err == "error: run 'r1' is in phase 'induction', nothing to resume\n"
    assert {path: path.read_bytes() for path in run.iterdir() if path.is_file()} == files


def test_live_run_records_the_live_backend_and_resumes_through_it(tmp_path, chat_server):
    # one answer serves every request: an instruction on one line for
    # induction, a tagged one for improve, and an output for inference
    chat_server.fallback = Reply(body=completion(f"<new_instruction>{PLANTED}</new_instruction>"))
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    argv = ["--config", str(paths["config"]), "--run-id", "r1", "--runs-dir", str(paths["runs"])]
    state_path = paths["runs"] / "r1" / "state.json"
    assert main(["induce", *argv]) == 0
    assert json.loads(state_path.read_text(encoding="utf-8"))["backend"] == {"mode": "live"}
    assert main(["optimize", *argv, "--stop-after-epoch", "1"]) == 0
    state = json.loads(state_path.read_text(encoding="utf-8"))
    assert (state["backend"], state["epoch"]) == ({"mode": "live"}, 1)
    sent = len(chat_server.requests)
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 0
    state = json.loads(state_path.read_text(encoding="utf-8"))
    assert (state["backend"], state["phase"], state["epoch"]) == ({"mode": "live"}, "done", 2)
    assert len(chat_server.requests) > sent
    assert (paths["runs"] / "r1" / "final_report.json").exists()


# (the JSON file, its fault): config files through ``induce``, and the
# state, history and script files that ``optimize --resume`` reads
JSON_FILE_FAULTS = [(kind, fault) for kind in ("config", "state", "history", "script")
                    for fault in ("missing", "not-utf8", "not-json", "too-deep")]
TOO_DEEP = "[" * 100_000 + "]" * 100_000  # json.loads raises RecursionError, not JSONDecodeError


@pytest.mark.parametrize(("kind", "fault"), JSON_FILE_FAULTS, ids=[f"{k}-{f}" for k, f in JSON_FILE_FAULTS])
def test_json_file_fault_exits_2_naming_it(tmp_path, capsys, kind, fault):
    """A config, state, history or script file that is missing, not UTF-8,
    not JSON or nested too deeply to parse exits 2 with one message per
    fault, whatever the file."""
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths) == 0
    assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
    bad = {"config": paths["config"], "script": paths["script"]}.get(kind, paths["runs"] / "r1" / f"{kind}.json")
    if fault == "missing":
        bad.unlink()
    elif fault == "not-utf8":
        bad.write_bytes(b"\xe9" + bad.read_bytes())
    else:
        bad.write_text("not json" if fault == "not-json" else TOO_DEEP, encoding="utf-8")
    capsys.readouterr()
    if kind == "config":
        assert _induce(paths, run_id="r2") == 2
        assert not (paths["runs"] / "r2").exists()
    else:
        assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 2
    err = capsys.readouterr().err
    if fault == "too-deep":  # the tail of the depth message differs between Python versions
        assert re.fullmatch(rf"error: {re.escape(str(bad))} is not valid JSON: maximum recursion depth exceeded[^\n]*\n",
                            err)
    else:
        assert err == {
            "missing": f"error: [Errno 2] No such file or directory: '{bad}'\n",
            "not-utf8": f"error: {bad} is not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 0: "
                        "invalid continuation byte\n",
            "not-json": f"error: {bad} is not valid JSON: Expecting value: line 1 column 1 (char 0)\n",
        }[fault]


# -- optimize -----------------------------------------------------------------


def test_optimize_reaches_planted_optimum(tmp_path, no_network):
    paths = make_workspace(tmp_path, n_epochs=4, beam_b=8)
    assert _induce(paths) == 0
    assert _optimize(paths) == 0
    run = paths["runs"] / "r1"
    best = (run / "best_prompt.txt").read_text(encoding="utf-8")
    assert PLANTED in best
    state = json.loads((run / "state.json").read_text(encoding="utf-8"))
    assert state["phase"] == "done"
    assert state["epoch"] == 4
    report = json.loads((run / "final_report.json").read_text(encoding="utf-8"))
    assert report["best_raw_error_full_dev"] == 0.0
    assert len(report["top5"]) == 5
    assert no_network["n"] == 0


def test_an_induced_instruction_with_a_carriage_return_stays_one_bullet(tmp_path):
    # a bare \r would split the bullet once prompt.txt is read back
    paths = make_workspace(tmp_path, n_epochs=1, beam_b=4)
    entries = script_entries()
    entries[0]["response"] = "Keep the verb.\rKeep the rest."
    paths["script"].write_text(json.dumps(entries), encoding="utf-8")
    assert _induce(paths) == 0
    prompt = (paths["runs"] / "r1" / "prompt.txt").read_text(encoding="utf-8")
    assert prompt.count("* Keep the verb. Keep the rest.\n") == 2
    assert _optimize(paths) == 0


def test_optimize_requires_prompt_or_induced_run(tmp_path):
    paths = make_workspace(tmp_path)
    assert _optimize(paths, run_id="fresh") == 2


def test_optimize_resume_matches_uninterrupted(tmp_path, no_network):
    paths = make_workspace(tmp_path, n_epochs=6, beam_b=6)
    assert _induce(paths, run_id="full") == 0
    assert _induce(paths, run_id="cut") == 0
    assert _optimize(paths, run_id="full") == 0

    assert _optimize(paths, run_id="cut", extra=("--stop-after-epoch", "3")) == 0
    state = json.loads((paths["runs"] / "cut" / "state.json").read_text())
    assert state["epoch"] == 3 and state["phase"] == "optimization"
    assert main(
        [
            "optimize",
            "--resume", "cut",
            "--runs-dir", str(paths["runs"]),
        ]
    ) == 0

    for name in ("state.json", "history.json", "best_prompt.txt", "final_report.json"):
        full = (paths["runs"] / "full" / name).read_bytes()
        cut = (paths["runs"] / "cut" / name).read_bytes()
        assert full.replace(b'"full"', b'"x"') == cut.replace(b'"cut"', b'"x"'), name


def test_resume_records_the_script_it_is_given(tmp_path):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths) == 0
    assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
    script = tmp_path / "moved.json"
    paths["script"].rename(script)
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"]), "--script", str(script)]) == 0
    state = json.loads((paths["runs"] / "r1" / "state.json").read_text(encoding="utf-8"))
    assert (state["epoch"], state["backend"]) == (2, {"mode": "scripted", "script": str(script)})


def test_stop_between_history_and_state_resumes_to_identical_files(tmp_path, no_network, monkeypatch):
    paths = make_workspace(tmp_path, n_epochs=5, beam_b=4)
    assert _induce(paths, run_id="full") == 0
    assert _induce(paths, run_id="cut") == 0
    assert _optimize(paths, run_id="full") == 0

    class Killed(BaseException):
        pass

    write_state = RunDir.write_state

    def killed_before_state_3(run, state):
        if state.epoch == 3:
            raise Killed
        write_state(run, state)

    monkeypatch.setattr(RunDir, "write_state", killed_before_state_3)
    with pytest.raises(Killed):
        _optimize(paths, run_id="cut")
    monkeypatch.undo()
    cut = paths["runs"] / "cut"
    assert json.loads((cut / "state.json").read_text())["epoch"] == 2
    assert [e["epoch"] for e in json.loads((cut / "history.json").read_text())["epochs"]] == [1, 2, 3]
    assert main(["optimize", "--resume", "cut", "--runs-dir", str(paths["runs"])]) == 0

    for name in ("state.json", "history.json", "best_prompt.txt", "final_report.json"):
        full = (paths["runs"] / "full" / name).read_bytes()
        resumed = (cut / name).read_bytes()
        assert full.replace(b'"full"', b'"x"') == resumed.replace(b'"cut"', b'"x"'), name


def _full_run_marks(paths, monkeypatch, workers) -> list[int]:
    """Induce and optimize run ``full``; return the calls its optimize had
    sent by the end of the seed scoring and of each epoch, then in all."""
    marks, backends = [], []
    from_file, write_state = ScriptedBackend.from_file.__func__, RunDir.write_state

    def recording_from_file(cls, path):
        backends.append(from_file(cls, path))
        return backends[-1]

    def recording_write_state(run, state):
        if state.phase != "induction":
            marks.append(backends[-1].calls.total())
        write_state(run, state)

    monkeypatch.setattr(ScriptedBackend, "from_file", classmethod(recording_from_file))
    monkeypatch.setattr(RunDir, "write_state", recording_write_state)
    assert _induce(paths, run_id="full", extra=workers) == 0
    assert _optimize(paths, run_id="full", extra=workers) == 0
    monkeypatch.undo()
    return [*marks, backends[-1].calls.total()]


def test_kill_at_any_call_of_optimize_resumes_to_identical_files(tmp_path, no_network, monkeypatch):
    paths = make_workspace(tmp_path, n_epochs=3, beam_b=4)
    workers = ("--workers", "4")
    seed, *epochs, total = _full_run_marks(paths, monkeypatch, workers)
    assert 1 < seed < epochs[0] < epochs[1] < epochs[2] < total
    kill_points = {1, seed, total}  # first and last seed scoring call, last final report call
    for start, end in zip((seed, *epochs), (*epochs, total)):
        kill_points |= {start + 1, (start + end) // 2, end}

    names = ("trials.json", "prompt.txt", "state.json", "history.json", "best_prompt.txt", "final_report.json")
    scripted = ScriptedBackend._complete
    for kill_at in sorted(kill_points):
        sent = itertools.count(1)

        def killed(self, request):
            if next(sent) == kill_at:
                raise KeyboardInterrupt
            return scripted(self, request)

        run_id = f"cut{kill_at}"
        assert _induce(paths, run_id=run_id, extra=workers) == 0
        monkeypatch.setattr(ScriptedBackend, "_complete", killed)
        with pytest.raises(KeyboardInterrupt):
            _optimize(paths, run_id=run_id, extra=workers)
        monkeypatch.undo()
        cut = paths["runs"] / run_id
        if json.loads((cut / "state.json").read_text(encoding="utf-8"))["phase"] == "induction":
            assert kill_at <= seed
            assert _optimize(paths, run_id=run_id, extra=workers) == 0
        else:
            assert main(["optimize", "--resume", run_id, "--runs-dir", str(paths["runs"]), *workers]) == 0
        for name in names:
            full = (paths["runs"] / "full" / name).read_bytes().replace(b'"full"', b'"x"')
            resumed = (cut / name).read_bytes().replace(f'"{run_id}"'.encode(), b'"x"')
            assert full == resumed, (kill_at, name)


def test_optimize_determinism_across_runs(tmp_path, no_network):
    paths = make_workspace(tmp_path, n_epochs=5, beam_b=8)
    inputs_before = {
        name: paths[name].read_bytes() for name in ("data", "script", "config")
    }
    for run_id in ("a", "b"):
        assert _induce(paths, run_id=run_id) == 0
        assert _optimize(paths, run_id=run_id) == 0
    history_a = (paths["runs"] / "a" / "history.json").read_bytes()
    history_b = (paths["runs"] / "b" / "history.json").read_bytes()
    assert history_a == history_b
    # commands never mutate their input files
    for name, before in inputs_before.items():
        assert paths[name].read_bytes() == before, name


def test_concurrency_leaves_run_artifacts_unchanged(tmp_path, no_network, monkeypatch):
    import apio.cli as cli

    paths = make_workspace(tmp_path, n_epochs=6, beam_b=6)
    pool_sizes = []

    class RecordingPool(cli.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pool_sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)

    def run(runs_dir, workers=None, extra=()):
        args = ["--config", str(paths["config"]), "--run-id", "r", "--runs-dir", str(runs_dir),
                "--script", str(paths["script"]), *(("--workers", str(workers)) if workers else ())]
        assert main(["induce", *args]) == 0
        assert main(["optimize", *args, *extra]) == 0

    run(tmp_path / "one", 1)
    run(tmp_path / "eight", 8)
    run(tmp_path / "default")
    # stopped at concurrency 1, resumed without --workers at the default
    run(tmp_path / "resumed", 1, extra=("--stop-after-epoch", "3"))
    assert main(["optimize", "--resume", "r", "--runs-dir", str(tmp_path / "resumed")]) == 0
    default = cli.DEFAULT_WORKERS
    assert pool_sizes == [1, 1, 8, 8, default, default, 1, 1, default]
    names = ("trials.json", "state.json", "history.json", "best_prompt.txt", "final_report.json")
    for other in ("eight", "default", "resumed"):
        for name in names:
            expected = (tmp_path / "one" / "r" / name).read_bytes()
            assert (tmp_path / other / "r" / name).read_bytes() == expected, (other, name)


def test_failed_child_scoring_drops_only_that_child(tmp_path, monkeypatch, caplog):
    failing = 'Replace "q1" with "q1".'
    scripted = ScriptedBackend._complete

    def complete(self, request):
        if request.profile == INFER and failing in request.content:
            raise GatewayError("injected inference failure")
        return scripted(self, request)

    def run(name, workers):
        paths = make_workspace(tmp_path / name, n_epochs=3, beam_b=6)
        assert _induce(paths, extra=("--workers", workers)) == 0
        assert _optimize(paths, extra=("--workers", workers)) == 0
        return (paths["runs"] / "r1" / "history.json").read_bytes()

    def epoch_one(history):
        return [c["prompt"]["instructions"] for c in json.loads(history)["epochs"][0]["candidates"]]

    clean = epoch_one(run("clean", "8"))
    monkeypatch.setattr(ScriptedBackend, "_complete", complete)
    with caplog.at_level(logging.WARNING, logger="apio.optimizer"):
        history = run("one", "1")
    assert run("eight", "8") == history
    assert epoch_one(history) == [c for c in clean if failing not in c]
    assert len(epoch_one(history)) == len(clean) - 1
    assert "scoring failed for improve child of 0" in caplog.text
    # the dropped child used up no id: the seed is 0 and the children follow it
    ids = [c["id"] for epoch in json.loads(history)["epochs"] for c in epoch["candidates"]]
    next_id = json.loads((tmp_path / "one" / "runs" / "r1" / "state.json").read_text())["next_id"]
    assert ids == list(range(1, next_id))


def test_interrupted_epoch_cancels_queued_scoring(tmp_path, monkeypatch):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=6)
    assert _induce(paths) == 0
    scripted = ScriptedBackend._complete
    sent, at_interrupt = [], []

    def complete(self, request):
        if request.profile == INFER:
            time.sleep(0.005)
            sent.append(request)
        elif "Generate a variation" in request.content:
            at_interrupt.append(len(sent))
            raise KeyboardInterrupt
        return scripted(self, request)

    monkeypatch.setattr(ScriptedBackend, "_complete", complete)
    with pytest.raises(KeyboardInterrupt):
        _optimize(paths, extra=("--workers", "1"))
    # the four improve children's 8 dev requests each are queued behind the
    # interrupted rephrase request; once the main thread reads the interrupt
    # it cancels them, and only the one already running still finishes
    assert len(sent) - at_interrupt[0] <= 1


def test_rejected_key_ends_optimize_at_its_last_epoch_to_resume_from(tmp_path, no_network, monkeypatch, capsys):
    paths = make_workspace(tmp_path, n_epochs=4, beam_b=4)
    workers = ("--workers", "2")
    _, _, epoch_2, epoch_3, *_ = _full_run_marks(paths, monkeypatch, workers)
    sent, scripted = itertools.count(1), ScriptedBackend._complete

    def rejected_from_mid_epoch_3(self, request):
        if next(sent) > (epoch_2 + epoch_3) // 2:
            raise CredentialError("authentication failed (401)")
        return scripted(self, request)

    assert _induce(paths, run_id="cut", extra=workers) == 0
    monkeypatch.setattr(ScriptedBackend, "_complete", rejected_from_mid_epoch_3)
    capsys.readouterr()
    assert _optimize(paths, run_id="cut", extra=workers) == 1
    monkeypatch.undo()
    assert capsys.readouterr().err == "engine failure: authentication failed (401)\n"
    cut = paths["runs"] / "cut"
    assert json.loads((cut / "state.json").read_text(encoding="utf-8"))["epoch"] == 2
    assert [e["epoch"] for e in json.loads((cut / "history.json").read_text(encoding="utf-8"))["epochs"]] == [1, 2]
    assert main(["optimize", "--resume", "cut", "--runs-dir", str(paths["runs"]), *workers]) == 0
    for name in ("trials.json", "prompt.txt", "state.json", "history.json", "best_prompt.txt", "final_report.json"):
        full = (paths["runs"] / "full" / name).read_bytes().replace(b'"full"', b'"x"')
        assert (cut / name).read_bytes().replace(b'"cut"', b'"x"') == full, name


def test_rejected_key_ends_induce_before_the_next_request(tmp_path, monkeypatch, capsys):
    paths = make_workspace(tmp_path)
    sent = []

    def rejected(self, request):
        sent.append(request)
        raise CredentialError("authentication failed (403)")

    monkeypatch.setattr(ScriptedBackend, "_complete", rejected)
    assert _induce(paths) == 1
    assert len(sent) == 1
    assert capsys.readouterr().err == "engine failure: authentication failed (403)\n"
    assert not (paths["runs"] / "r1" / "prompt.txt").exists()


def test_final_report_queues_all_six_scorings_before_waiting(tmp_path, monkeypatch):
    import apio.cli as cli

    paths = make_workspace(tmp_path, n_epochs=2, beam_b=6)
    assert _induce(paths) == 0
    events = []
    submit, gather = cli.submit_scoring, cli.gather_scoring
    monkeypatch.setattr(cli, "submit_scoring", lambda *a: events.append(len(a[1])) or submit(*a))
    monkeypatch.setattr(cli, "gather_scoring", lambda scoring: events.append("gather") or gather(scoring))
    assert _optimize(paths, extra=("--dev-subsample", "4")) == 0
    report = json.loads((paths["runs"] / "r1" / "final_report.json").read_text(encoding="utf-8"))
    assert len(report["top5"]) == 5
    # the best on the 8-pair dev set, half of whose requests the search
    # never sent, then the top five on the 4-pair subsample
    assert events == [8] + [4] * 5 + ["gather"] * 6


def _gec_m2_workspace(root: Path) -> dict[str, Path]:
    """The toy workspace as a gec task on 12 random records in
    ``paths["gold"]``, with a script that answers every request of its run."""
    paths = make_workspace(root, n_epochs=2, beam_b=6)
    paths["gold"] = root / "gold.m2"
    rng = random.Random(3)
    paths["gold"].write_text("\n".join(serialize_m2(random_record(rng)) for _ in range(12)), encoding="utf-8")
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["task"] = "gec"
    config["data"].update(format="m2", path=str(paths["gold"]))
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    paths["script"].write_text(json.dumps([
        {"match": INDUCE_MATCH, "response": "Fix the grammar."},
        # epoch 1's first improve sample has tag 4
        {"match": "Suggest new instruction", "response": "<new_instruction>Fix verbs.</new_instruction>",
         "attempt_tag": 4},
        {"match": "Suggest new instruction", "response": "<new_instruction>Fix nouns.</new_instruction>"},
        {"match": "Generate a variation", "mode": "echo_instruction"},
        {"match": "Corrected sentence:", "response": "the cat sat"},
    ]), encoding="utf-8")
    return paths


def test_optimize_gec_loads_gold_m2_once_for_final_report(tmp_path, monkeypatch):
    import apio.cli as cli
    import apio.config as config

    paths = _gec_m2_workspace(tmp_path)
    loads = []
    for module in (config, cli):
        monkeypatch.setattr(module, "load_m2", lambda path: loads.append(path) or load_m2(path))
    assert _induce(paths) == 0
    assert _optimize(paths) == 0
    report = json.loads((paths["runs"] / "r1" / "final_report.json").read_text(encoding="utf-8"))
    assert len(report["top5"]) > 1
    assert all(entry["task_metric"]["name"] == "f05-approx" for entry in report["top5"])
    assert loads == [str(paths["gold"])] * 2  # the split of each command


def test_optimize_gec_report_scores_the_gold_its_split_read(tmp_path, monkeypatch):
    import apio.cli as cli

    reports = []
    for name in ("untouched", "rewritten"):
        paths = _gec_m2_workspace(tmp_path / name)
        assert _induce(paths) == 0
        if name == "rewritten":
            split, gold = cli.split_pairs, paths["gold"]

            def split_then_rewrite(cfg):
                pairs = split(cfg)
                gold.write_text(serialize_m2(random_record(random.Random(4))), encoding="utf-8")
                return pairs

            monkeypatch.setattr(cli, "split_pairs", split_then_rewrite)
        assert _optimize(paths) == 0
        reports.append((paths["runs"] / "r1" / "final_report.json").read_bytes())
    assert all(e["task_metric"]["name"] == "f05-approx" for e in json.loads(reports[0])["top5"])
    assert reports[1] == reports[0]


@pytest.mark.parametrize("workers", ["0", "-3", "eight"])
def test_induce_invalid_workers_exits_2_before_creating_run(tmp_path, workers, capsys):
    paths = make_workspace(tmp_path)
    assert _induce(paths, extra=("--workers", workers)) == 2
    assert "--workers" in capsys.readouterr().err
    assert not (paths["runs"] / "r1").exists()
    assert _induce(paths) == 0


@pytest.mark.parametrize("value", ["0", "-1"])
def test_induce_dev_subsample_below_one_exits_2_before_creating_run(tmp_path, value, capsys):
    paths = make_workspace(tmp_path)
    assert _induce(paths, extra=("--dev-subsample", value)) == 2
    assert f"optimizer.dev_subsample must be an integer >= 1 or null, got {value}" in capsys.readouterr().err
    assert not (paths["runs"] / "r1").exists()


def _run_with_config_value(tmp_path, command, key, value) -> int:
    """Run ``induce``, or ``optimize`` from a prompt file, on the toy
    workspace after setting the config file's dotted ``key`` to ``value``."""
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    *parents, leaf = key.split(".")
    node = config
    for part in parents:
        node = node.setdefault(part, {})
    node[leaf] = value
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    prompt = tmp_path / "seed.txt"
    _write_prompt(prompt)
    return _induce(paths) if command == "induce" else _optimize(paths, extra=("--prompt", str(prompt)))


# a string for a number, a fraction for a count, a bool for an int, a list
# for a scalar and a string for a section: each was a traceback, a silent
# run or an error naming no field
MALFORMED_CONFIG_VALUES = [
    ("optimizer.beam_b", "2"),
    ("induction.n_trials", "2"),
    ("optimizer.lambda", "x"),
    ("optimizer.lambda", float("inf")),
    ("backend.retry_max", "3"),
    ("optimizer.beam_b", 2.5),
    ("optimizer.improve_batch", 1.5),
    ("data.train_size", 3.5),
    ("optimizer.dev_subsample", 2.5),
    ("data.split_seed", [1]),
    ("task", ["gec"]),
    ("optimizer.beam_b", True),
    ("optimizer.n_permute", 2.5),
    ("seed", [1]),
    ("optimizer", "x"),
]


@pytest.mark.parametrize("command", ["induce", "optimize"])
@pytest.mark.parametrize(
    ("key", "value"), [pytest.param(k, v, id=f"{k}={json.dumps(v)}") for k, v in MALFORMED_CONFIG_VALUES]
)
def test_malformed_config_value_exits_2_naming_it(tmp_path, capsys, command, key, value):
    assert _run_with_config_value(tmp_path, command, key, value) == 2
    assert f"error: {key} must be " in capsys.readouterr().err
    assert not (tmp_path / "runs" / "r1").exists()


@dataclass
class _Postponed:
    """Declared under postponed annotations: its field types are the
    strings "int" and "str | None"."""

    count: int
    label: str | None = None


def test_check_fields_evaluates_postponed_annotations():
    assert [f.type for f in fields(_Postponed)] == ["int", "str | None"]
    assert from_object(_Postponed, {"count": 3, "label": "x"}) == _Postponed(3, "x")
    assert from_object(_Postponed, {"count": 3}) == _Postponed(3)
    with pytest.raises(ConfigurationError, match="^count must be an integer, got '3'$"):
        from_object(_Postponed, {"count": "3"})
    with pytest.raises(ConfigurationError, match="^s.label must be a string or null, got 5$"):
        from_object(_Postponed, {"count": 3, "label": 5}, "s")


def test_number_field_refuses_what_no_float_holds():
    for value in (float("inf"), float("-inf"), float("nan"), 10**400):
        with pytest.raises(ConfigurationError, match="^lambda must be a finite number >= 0, got "):
            from_object(OptimizerConfig, {"lambda": value})
    assert from_object(OptimizerConfig, {"lambda": 10**300}).drift_weight == 10**300


def test_unknown_key_or_non_object_config_exits_2(tmp_path, capsys):
    assert _run_with_config_value(tmp_path, "induce", "optimizer.beam", 4) == 2
    assert "error: optimizer holds the unknown key 'beam'" in capsys.readouterr().err
    paths = make_workspace(tmp_path / "list")
    paths["config"].write_text("[]\n", encoding="utf-8")
    assert _induce(paths) == 2
    assert f"error: config file {paths['config']} must hold a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists() and not paths["runs"].exists()
    # a flag that sets a field of a section that is no object
    paths["config"].write_text('{"optimizer": "x"}\n', encoding="utf-8")
    assert _induce(paths, extra=("--dev-subsample", "3")) == 2
    assert "error: optimizer must be a JSON object, got 'x'" in capsys.readouterr().err
    assert not paths["runs"].exists()
    # misspelt top-level keys, which a run once ignored for the defaults
    write_config(paths["config"], paths["data"])
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    paths["config"].write_text(json.dumps({**config, "optimiser": {"beam_b": 4}, "taks": "gec"}), encoding="utf-8")
    assert _induce(paths) == 2
    assert "error: the top level holds the unknown key 'optimiser'" in capsys.readouterr().err
    assert not paths["runs"].exists()


def test_run_files_read_back_what_is_written():
    """``from_object`` inverts ``to_object`` for a state with a pool and a
    scripted backend, and for a configuration with a non-default lambda."""
    cfg = RunConfig(optimizer=OptimizerConfig(drift_weight=0.25, dev_subsample=None))
    seed = Prompt("A header.", ("Do x.", "Do y."), GENERIC_TEMPLATE.footer)
    pool = [Candidate(3, seed.append_instruction("Do z."), -0.5, 0.25, 0.5, 0, "improve", 1),
            Candidate(0, seed, -1.5, 1.5, 0.0, None, "init", 0)]
    state = RunState("r1", "optimization", cfg, BackendState("scripted", "script.json"),
                     epoch=1, next_id=4, pool=pool, seed_prompt=seed.text())
    assert to_object(cfg)["optimizer"]["lambda"] == 0.25
    for obj in (state, cfg):
        assert from_object(type(obj), json.loads(json.dumps(to_object(obj)))) == obj


def test_readme_configuration_example_loads_as_written(tmp_path):
    """README's configuration example is a config file that ``load_config``
    reads to the values it shows, so a key the docs keep after the code
    drops it fails here."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    text = re.search(r"### Configuration\n.*?```json\n(.*?)```", readme, re.S)[1]
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    loaded = to_object(load_config(path))
    example = json.loads(text)
    shown = {key: {k: loaded[key][k] for k in value} if isinstance(value, dict) else loaded[key]
             for key, value in example.items()}
    assert shown == example


@pytest.mark.parametrize("command", ["induce", "optimize"])
@pytest.mark.parametrize(("field", "value"), [("dev_size", 0), ("train_size", 0), ("dev_size", -1)])
def test_split_size_below_one_exits_2_before_creating_run(tmp_path, capsys, command, field, value):
    assert _run_with_config_value(tmp_path, command, f"data.{field}", value) == 2
    assert f"data.{field} must be an integer >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "r1").exists()


def test_train_size_below_n_instructions_exits_2_before_creating_run(tmp_path, capsys):
    paths = make_workspace(tmp_path, n_instructions=3)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["data"]["train_size"] = 2
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    assert _induce(paths) == 2
    assert "data.train_size 2 is smaller than induction.n_instructions 3" in capsys.readouterr().err
    assert not (paths["runs"] / "r1").exists()


@pytest.mark.parametrize("command", ["induce", "optimize"])
@pytest.mark.parametrize(
    ("field", "value"),
    [("n_epochs", "2"), ("n_epochs", -3), ("improve_samples", "4"), ("improve_samples", 0)],
)
def test_bad_optimizer_count_exits_2_before_creating_run(tmp_path, capsys, command, field, value):
    assert _run_with_config_value(tmp_path, command, f"optimizer.{field}", value) == 2
    assert f"optimizer.{field} must be an integer >= " in capsys.readouterr().err
    assert not (tmp_path / "runs" / "r1").exists()


@pytest.mark.parametrize("command", ["induce", "optimize"])
def test_backend_usage_error_leaves_no_run_directory(tmp_path, capsys, command):
    paths = make_workspace(tmp_path)
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory\n", encoding="utf-8")
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    # a closed local port, so that a backend that slips through reaches no host
    config["backend"] = {"base_url": "http://127.0.0.1:9/v1", "cache_dir": str(blocker)}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    prompt = tmp_path / "seed.txt"
    _write_prompt(prompt)
    argv = [command, "--config", str(paths["config"]), "--run-id", "r1", "--runs-dir", str(paths["runs"])]
    assert main(argv if command == "induce" else [*argv, "--prompt", str(prompt)]) == 2
    assert f"cache directory {blocker} is a file or lies under one" in capsys.readouterr().err
    assert not (paths["runs"] / "r1").exists()


def test_prompt_file_without_one_footer_slot_exits_2_before_creating_run(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    prompt = tmp_path / "seed.txt"
    prompt.write_text("* Do x.\nInput: {input_text}\nAgain: {input_text}\nOutput:\n", encoding="utf-8")
    assert _optimize(paths, extra=("--prompt", str(prompt))) == 2
    assert capsys.readouterr().err == f"error: {prompt}: prompt footer must contain the '{{input_text}}' slot exactly once\n"
    assert not (paths["runs"] / "r1").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_stop_after_epoch_below_one_exits_2(tmp_path, capsys, value):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths) == 0
    state = (paths["runs"] / "r1" / "state.json").read_bytes()
    assert _optimize(paths, extra=("--stop-after-epoch", value)) == 2
    assert "--stop-after-epoch: must be >= 1" in capsys.readouterr().err
    assert (paths["runs"] / "r1" / "state.json").read_bytes() == state
    assert not (paths["runs"] / "r1" / "history.json").exists()


@pytest.mark.parametrize("command", ["induce", "infer", "baseline", "resume"])
def test_unknown_task_in_config_exits_2(tmp_path, command, capsys):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    if command == "resume":
        assert _induce(paths) == 0
        assert _optimize(paths, extra=("--stop-after-epoch", "1")) == 0
        state_path = paths["runs"] / "r1" / "state.json"
        state = json.loads(state_path.read_text(encoding="utf-8"))
        state["config"]["task"] = "bogus"
        state_path.write_text(json.dumps(state), encoding="utf-8")
        capsys.readouterr()
        assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 2
        assert "unknown task 'bogus'" in capsys.readouterr().err
        assert json.loads(state_path.read_text(encoding="utf-8"))["epoch"] == 1
        return
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["task"] = "bogus"
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    source.write_text("a foo\n", encoding="utf-8")
    io = ["--input", str(source), "--output", str(out)]
    argv = {
        "induce": ["induce", "--config", str(paths["config"]), "--run-id", "r1",
                   "--runs-dir", str(paths["runs"]), "--script", str(paths["script"])],
        "infer": ["infer", "--config", str(paths["config"]), "--prompt", str(prompt), *io,
                  "--script", str(paths["script"])],
        "baseline": ["baseline", "--config", str(paths["config"]), "--kind", "copy", *io],
    }[command]
    assert main(argv) == 2
    assert "unknown task 'bogus'" in capsys.readouterr().err
    assert not (paths["runs"] / "r1").exists()
    assert not out.exists()


def test_dev_subsample_flag_recorded_and_applied(tmp_path, no_network):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    assert _induce(paths, extra=("--dev-subsample", "3")) == 0
    assert _optimize(paths, extra=("--dev-subsample", "3")) == 0
    state = json.loads((paths["runs"] / "r1" / "state.json").read_text(encoding="utf-8"))
    assert state["config"]["optimizer"]["dev_subsample"] == 3
    # fitness on the fixed 3-pair subsample: error counts stay within 0..max
    history = json.loads((paths["runs"] / "r1" / "history.json").read_text(encoding="utf-8"))
    candidates = [c for e in history["epochs"] for c in e["candidates"]]
    assert candidates
    assert all(0.0 <= c["raw_error"] <= 4.0 for c in candidates)


def test_dev_subsample_flag_all_overrides_a_config_count(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["optimizer"]["dev_subsample"] = 3
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    assert _induce(paths, run_id="word", extra=("--dev-subsample", "most")) == 2
    assert "optimizer.dev_subsample must be an integer >= 1 or null, got 'most'" in capsys.readouterr().err
    # so do a digit that is no decimal digit and a count with two signs
    for word in ("²", "--3"):
        assert _induce(paths, run_id="word", extra=(f"--dev-subsample={word}",)) == 2
        assert f"optimizer.dev_subsample must be an integer >= 1 or null, got {word!r}" in capsys.readouterr().err
    assert not (paths["runs"] / "word").exists()
    assert _induce(paths, extra=("--dev-subsample", "all")) == 0
    state = json.loads((paths["runs"] / "r1" / "state.json").read_text(encoding="utf-8"))
    assert state["config"]["optimizer"]["dev_subsample"] is None


# -- infer --------------------------------------------------------------------


@pytest.mark.parametrize(
    "backend",
    [
        {"retry_max": -1},
        {"timeout_s": 0},
        {"timeout_s": 1e10},
        {"timeout_s": float("inf")},
        {"max_tokens": 0},
        {"base_url": "api.openai.com/v1"},
        {"base_url": "ftp://llm.test/v1"},
        {"base_url": "http:///v1"},
        {"base_url": "http://127.0.0.1:99999/v1"},
        {"base_url": "http://127.0.0.1:port/v1"},
        {"base_url": "http://a..b/v1"},
        {"base_url": f"http://{'a' * 64}.test/v1"},
    ],
    ids=["retry_max", "timeout_s", "timeout_s-past-TIMEOUT_MAX", "timeout_s-Infinity", "max_tokens", "no-scheme", "ftp", "no-host", "port-out-of-range",
         "port-not-a-number", "empty-label", "label-over-63"],
)
@pytest.mark.parametrize("command", ["induce", "infer"])
def test_invalid_backend_config_exits_2(tmp_path, command, backend, capsys):
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    # a closed local port, so that a value that slips through reaches no host
    config["backend"] = {"base_url": "http://127.0.0.1:9/v1", **backend}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    if command == "induce":
        assert _induce(paths) == 2
        assert not (paths["runs"] / "r1").exists()
    else:
        prompt, source = tmp_path / "p.txt", tmp_path / "in.txt"
        _write_prompt(prompt)
        source.write_text("a foo\n", encoding="utf-8")
        assert main(["infer", "--config", str(paths["config"]), "--prompt", str(prompt),
                     "--input", str(source), "--output", str(tmp_path / "out.txt")]) == 2
        assert not (tmp_path / "out.txt").exists()
    assert f"backend.{next(iter(backend))}" in capsys.readouterr().err


def _write_prompt(path: Path) -> None:
    path.write_text(f"* {PLANTED}\nInput: {{input_text}}\nOutput:\n", encoding="utf-8")


def test_infer_line_contract(tmp_path):
    prompt = tmp_path / "p.txt"
    _write_prompt(prompt)
    source = tmp_path / "in.txt"
    source.write_text("a foo\n\nanother foo here\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    script = tmp_path / "s.json"
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules"}]))
    code = main(
        ["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
         "--script", str(script)]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "a bar\n\nanother bar here\n"


def test_infer_joins_a_multi_line_answer_into_one_output_line(tmp_path):
    prompt, source, script, out = (tmp_path / name for name in ("p.txt", "in.txt", "s.json", "out.txt"))
    _write_prompt(prompt)
    source.write_text("a foo\n", encoding="utf-8")
    script.write_text(json.dumps([{"match": "\nOutput:", "response": " one\ntwo\n\ndropped"}]))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
                 "--script", str(script)]) == 0
    assert out.read_text(encoding="utf-8") == "one two\n"


def test_crlf_answers_infer_one_line_each_and_evaluate(tmp_path):
    prompt, source, script, out = (tmp_path / name for name in ("p.txt", "in.txt", "s.json", "out.txt"))
    gold, report = tmp_path / "gold.jsonl", tmp_path / "report.json"
    _write_prompt(prompt)
    source.write_text("a foo\nb foo\n", encoding="utf-8")
    script.write_text(json.dumps([{"match": "Input: a foo", "response": "Fixed.\r\n\r\nExplanation"},
                                  {"match": "Input: b foo", "response": "one\rtwo"}]))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
                 "--script", str(script)]) == 0
    assert out.read_bytes() == b"Fixed.\none two\n"
    gold.write_text('{"source": "a foo", "references": ["Fixed."]}\n{"source": "b foo", "references": ["one"]}\n',
                    encoding="utf-8")
    assert main(["evaluate", "--task", "generic", "--predictions", str(out), "--gold", str(gold),
                 "--output", str(report)]) == 0
    assert json.loads(report.read_text(encoding="utf-8"))["per_sample"] == [0, 1]


def test_script_alone_selects_the_scripted_backend(tmp_path, no_network):
    prompt, source, script, out = (tmp_path / name for name in ("p.txt", "in.txt", "s.json", "out.txt"))
    _write_prompt(prompt)
    source.write_text("a foo\n", encoding="utf-8")
    script.write_text(json.dumps([{"match": "\nOutput:", "response": "scripted"}]))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
                 "--script", str(script)]) == 0
    assert out.read_text(encoding="utf-8") == "scripted\n"
    assert no_network["n"] == 0


@pytest.mark.parametrize("flag", [("--task", "gec"), ("--seed", "1")], ids=["task", "seed"])
def test_infer_takes_no_task_or_seed(tmp_path, capsys, flag):
    argv = _argv("infer", _command_files(tmp_path)["infer"])
    assert main(argv) == 0
    assert main([*argv, *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_infer_parallel_workers_preserve_order(tmp_path):
    prompt = tmp_path / "p.txt"
    _write_prompt(prompt)
    source = tmp_path / "in.txt"
    lines = [f"item {i} foo" if i % 3 else "" for i in range(40)]
    source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    script = tmp_path / "s.json"
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules"}]))
    sequential, parallel = tmp_path / "seq.txt", tmp_path / "par.txt"
    base = ["infer", "--prompt", str(prompt), "--input", str(source),
            "--script", str(script)]
    assert main([*base, "--output", str(sequential), "--workers", "1"]) == 0
    assert main([*base, "--output", str(parallel), "--workers", "4"]) == 0
    assert parallel.read_bytes() == sequential.read_bytes()
    expected = [line.replace("foo", "bar") for line in lines]
    assert sequential.read_text(encoding="utf-8").split("\n")[:-1] == expected


def test_infer_warm_cache_is_idempotent_and_offline(tmp_path, chat_server):
    chat_server.fallback = Reply(body=completion("rewritten"))
    prompt = tmp_path / "p.txt"
    _write_prompt(prompt)
    source = tmp_path / "in.txt"
    source.write_text("line one\nline two\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"backend": {"base_url": chat_server.url, "cache_dir": str(tmp_path / "cache")}}
    ))

    out1, out2 = tmp_path / "o1.txt", tmp_path / "o2.txt"
    assert main(["infer", "--prompt", str(prompt), "--input", str(source),
                 "--output", str(out1), "--config", str(config)]) == 0
    assert len(chat_server.requests) == 2
    assert main(["infer", "--prompt", str(prompt), "--input", str(source),
                 "--output", str(out2), "--config", str(config)]) == 0
    assert len(chat_server.requests) == 2  # second run fully served from cache
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "stored", ['{"key": "abc", "respon', "[]", '{"key": "abc"}', "\x00\xff", "foreign-schema"]
)
def test_cache_file_that_is_not_a_database_exits_2(tmp_path, chat_server, capsys, stored):
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    source.write_text("line one\n", encoding="utf-8")
    cache_file = tmp_path / "cache" / "completions.sqlite3"
    cache_file.parent.mkdir()
    if stored == "foreign-schema":
        # a database whose completions table lacks the response column
        with contextlib.closing(sqlite3.connect(cache_file)) as db, db:
            db.execute("CREATE TABLE completions (key TEXT PRIMARY KEY, text TEXT)")
        stored = cache_file.read_bytes().decode("latin-1")
    else:
        cache_file.write_bytes(stored.encode("latin-1"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url, "cache_dir": str(cache_file.parent)}}))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source),
                 "--output", str(out), "--config", str(config)]) == 2
    assert str(cache_file) in capsys.readouterr().err
    assert chat_server.requests == [] and not out.exists()
    assert cache_file.read_bytes() == stored.encode("latin-1")


def test_cache_file_that_cannot_be_opened_exits_2(tmp_path, chat_server, capsys):
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    source.write_text("line one\n", encoding="utf-8")
    cache_file = tmp_path / "cache" / "completions.sqlite3"
    cache_file.mkdir(parents=True)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url, "cache_dir": str(cache_file.parent)}}))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source),
                 "--output", str(out), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"error: cache file {cache_file} is not a usable SQLite database: unable to open database file\n"
    )
    assert chat_server.requests == [] and not out.exists()


@pytest.mark.parametrize("key", ["sk-abc\ndef", "sk-\u043a\u043b\u044e\u0447"], ids=["newline", "not-latin-1"])
@pytest.mark.parametrize("command", ["induce", "infer"])
def test_api_key_that_a_header_cannot_carry_exits_2_unechoed(tmp_path, chat_server, capsys, monkeypatch, command, key):
    monkeypatch.setenv("APIO_API_KEY", key)
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    source.write_text("line one\n", encoding="utf-8")
    argv = {
        "induce": ["induce", "--run-id", "r1", "--runs-dir", str(paths["runs"])],
        "infer": ["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out)],
    }[command]
    assert main([*argv, "--config", str(paths["config"])]) == 2
    err = capsys.readouterr().err
    assert "APIO_API_KEY" in err and "sk-" not in err
    assert chat_server.requests == []
    assert not (paths["runs"] / "r1").exists() and not out.exists()


@pytest.mark.parametrize("suffix", ["/v1 x", "/v\u00e9"], ids=["space", "non-ascii-path"])
@pytest.mark.parametrize("command", ["induce", "infer"])
def test_base_url_that_a_request_line_cannot_carry_exits_2(tmp_path, chat_server, capsys, command, suffix):
    base_url = chat_server.url.removesuffix("/v1") + suffix
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": base_url, "retry_max": 0}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    source.write_text("line one\n", encoding="utf-8")
    argv = {
        "induce": ["induce", "--run-id", "r1", "--runs-dir", str(paths["runs"])],
        "infer": ["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out)],
    }[command]
    assert main([*argv, "--config", str(paths["config"])]) == 2
    assert capsys.readouterr().err == (
        "error: backend.base_url must hold no whitespace or control character, and no non-ASCII one in its"
        f" path or query, got {base_url!r}\n"
    )
    assert chat_server.requests == []
    assert not (paths["runs"] / "r1").exists() and not out.exists()


@pytest.mark.parametrize("suffix", ["#frag", "?api-version=1#"])
def test_base_url_with_a_fragment_exits_2(tmp_path, chat_server, capsys, suffix):
    prompt, source, out, config = (tmp_path / name for name in ("p.txt", "in.txt", "out.txt", "cfg.json"))
    _write_prompt(prompt)
    source.write_text("line one\n", encoding="utf-8")
    base_url = chat_server.url + suffix
    config.write_text(json.dumps({"backend": {"base_url": base_url}}), encoding="utf-8")
    assert main(["infer", "--prompt", str(prompt), "--input", str(source),
                 "--output", str(out), "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: backend.base_url must hold no fragment ('#'), got {base_url!r}\n"
    assert chat_server.requests == [] and not out.exists()


@pytest.mark.parametrize("command", ["induce", "infer"])
@pytest.mark.parametrize("userinfo", ["user:s3cret@", "user@", ":s3cret@"])
def test_base_url_with_userinfo_exits_2(tmp_path, chat_server, capsys, command, userinfo):
    """A password in ``base_url`` would never be sent, and ``state.json``
    would keep it on disk; the message does not echo it."""
    base_url = chat_server.url.replace("//", "//" + userinfo, 1)
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": base_url}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    source.write_text("line one\n", encoding="utf-8")
    argv = {
        "induce": ["induce", "--run-id", "r1", "--runs-dir", str(paths["runs"])],
        "infer": ["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out)],
    }[command]
    assert main([*argv, "--config", str(paths["config"])]) == 2
    assert capsys.readouterr().err == "error: backend.base_url must hold no user name or password ('user:password@')\n"
    assert chat_server.requests == []
    assert not paths["runs"].exists() and not out.exists()


@pytest.mark.parametrize("base_url", ["http://\u00e9xample.test/v1", "http://127.0.0.1:1/v1?q=a%20b"])
def test_base_url_with_a_non_ascii_host_or_an_escaped_query_is_accepted(base_url):
    assert from_object(RunConfig, {"backend": {"base_url": base_url}}).backend.base_url == base_url


@pytest.mark.parametrize("under", ["", "sub"])
def test_cache_dir_that_is_a_file_exits_2(tmp_path, chat_server, capsys, under):
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    source.write_text("line one\n", encoding="utf-8")
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory\n", encoding="utf-8")
    cache_dir = blocker / under if under else blocker
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url, "cache_dir": str(cache_dir)}}))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source),
                 "--output", str(out), "--config", str(config)]) == 2
    assert f"cache directory {cache_dir} is a file or lies under one" in capsys.readouterr().err
    assert chat_server.requests == [] and not out.exists()
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


@contextlib.contextmanager
def _write_locked(cache_file: Path) -> Iterator[None]:
    """Another connection holding the write lock of ``cache_file``."""
    with contextlib.closing(sqlite3.connect(cache_file, isolation_level=None)) as db:
        db.execute("BEGIN IMMEDIATE")
        yield
        db.execute("ROLLBACK")


def test_infer_keeps_the_answer_that_a_locked_cache_cannot_store(tmp_path, chat_server, caplog, monkeypatch):
    """A cache write that waits out the busy timeout is logged and the
    answer it could not store is used; a lookup still reads the cache."""
    monkeypatch.setattr(gateway, "CACHE_BUSY_TIMEOUT_S", 0.05)
    chat_server.fallback = Reply(body=completion("rewritten"))
    prompt, source, out = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "out.txt"
    _write_prompt(prompt)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url, "cache_dir": str(tmp_path / "cache")}}))
    argv = ["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out), "--config", str(config)]
    source.write_text("line one\n", encoding="utf-8")
    assert main(argv) == 0
    source.write_text("line one\nline two\n", encoding="utf-8")
    with _write_locked(tmp_path / "cache" / "completions.sqlite3"), caplog.at_level(logging.WARNING):
        assert main(argv) == 0
    assert out.read_text(encoding="utf-8") == "rewritten\nrewritten\n"
    assert len(chat_server.requests) == 2  # line one was read from the cache
    assert "completion cache write failed: database is locked" in caplog.text


def test_live_optimize_finishes_while_its_cache_is_locked(tmp_path, chat_server, caplog, monkeypatch):
    monkeypatch.setattr(gateway, "CACHE_BUSY_TIMEOUT_S", 0.01)
    chat_server.fallback = Reply(body=completion(f"<new_instruction>{PLANTED}</new_instruction>"))
    paths = make_workspace(tmp_path, n_epochs=1, beam_b=2)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    argv = ["--config", str(paths["config"]), "--run-id", "r1", "--runs-dir", str(paths["runs"])]
    assert main(["induce", *argv]) == 0
    with _write_locked(paths["runs"] / "r1" / "cache" / "completions.sqlite3"), caplog.at_level(logging.WARNING):
        assert main(["optimize", *argv]) == 0
    assert json.loads((paths["runs"] / "r1" / "state.json").read_text(encoding="utf-8"))["phase"] == "done"
    assert "completion cache write failed: database is locked" in caplog.text


def test_live_run_at_the_default_workers_writes_the_files_of_one_worker(tmp_path, chat_server):
    """A toy live ``induce`` + ``optimize`` without ``--workers``, each pool
    thread on a connection of its own, writes the run files that
    ``--workers 1`` writes. ``optimize`` sends every request from its pool,
    none from the main thread."""
    answer = answered_by(ScriptedBackend([ScriptEntry(**e) for e in script_entries()]))

    def slow_inference(request: dict) -> Reply:
        reply = answer(request)
        return replace(reply, delay=0.05) if request["json"]["temperature"] == 0.0 else reply

    paths = make_workspace(tmp_path, n_epochs=3, beam_b=4)
    # 48 dev pairs: a child's dev scoring queues 48 requests at once, which
    # find every pool thread busy, so that the pool starts all of its threads
    rows = [{"id": f"toy-{i}", "source": f"{source} {i}", "references": [f"{source.replace('foo', 'bar')} {i}"]}
            for i, source in enumerate(SOURCES * 5)]
    paths["data"].write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["data"]["dev_size"] = 48
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")

    def run(name: str, *extra: str) -> tuple[dict[str, bytes], int]:
        """The run files, and how many connections ``optimize`` sent on."""
        argv = ["--config", str(paths["config"]), "--run-id", "r", "--runs-dir", str(tmp_path / name), *extra]
        assert main(["induce", *argv]) == 0
        start = len(chat_server.requests)
        assert main(["optimize", *argv]) == 0
        names = ("trials.json", "history.json", "state.json", "best_prompt.txt", "final_report.json")
        ports = {r["port"] for r in chat_server.requests[start:]}
        return {n: (tmp_path / name / "r" / n).read_bytes() for n in names}, len(ports)

    chat_server.respond = slow_inference
    default, connections = run("default")
    chat_server.respond = answer
    one, one_connections = run("one", "--workers", "1")
    assert default == one
    # every pool thread's, and no other
    assert (connections, one_connections) == (DEFAULT_WORKERS, 1)


# the soak's faults: each request body is answered with at most SOAK_BURST of
# them, in a row, before its answer. Which ones is a seeded function of the
# body and of how often it was sent before, so that thread timing cannot
# move a fault from one request to another.
SOAK_FAULTS = (
    Reply(status=429), Reply(status=500), Reply(status=503), Reply(drop=True),
    Reply(body="not json"), Reply(body={"choices": []}), Reply(body={"choices": [{"text": "t"}]}),
)
SOAK_BURST = 3


def test_live_run_under_a_fault_soak_writes_the_fault_free_files(tmp_path, chat_server, monkeypatch):
    """Transient statuses, dropped connections and malformed 200 replies,
    each within the retry budget, change no run file."""
    backend = gateway.OpenAIChatBackend
    monkeypatch.setattr(backend, "__init__", functools.partialmethod(backend.__init__, backoff_base_s=0.0))
    answer = answered_by(ScriptedBackend([ScriptEntry(**e) for e in script_entries()]))
    paths = make_workspace(tmp_path, n_epochs=3, beam_b=4)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": chat_server.url, "retry_max": SOAK_BURST + 1}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")

    def run(name: str) -> dict[str, bytes]:
        argv = ["--config", str(paths["config"]), "--run-id", "r", "--runs-dir", str(tmp_path / name), "--workers", "4"]
        assert main(["induce", *argv]) == 0
        assert main(["optimize", *argv]) == 0
        files = (tmp_path / name / "r").iterdir()
        return {f.name: f.read_bytes() for f in files if f.is_file() and f.name != ".lock"}

    chat_server.respond = answer
    clean = run("clean")
    sent: Counter[bytes] = Counter()
    injected: list[Reply] = []

    def soak(request: dict) -> Reply:
        body, content = request["body"], request["json"]["messages"][0]["content"]
        earlier = sent[body]
        sent[body] += 1
        rng = random.Random(b"soak %d " % earlier + body)
        if earlier == 0 and request["json"]["temperature"] == 0.0 and 'Replace "pad"' in content:
            fault = SOAK_FAULTS[4]  # malformed, on the scoring of a child that toytask's untagged improve made
        elif earlier < SOAK_BURST and rng.random() < 0.3:
            fault = rng.choice(SOAK_FAULTS)
        else:
            return answer(request)
        injected.append(fault)
        return fault

    chat_server.respond = soak
    assert run("soak") == clean
    assert sorted(clean) == ["best_prompt.txt", "final_report.json", "history.json", "prompt.txt", "state.json",
                             "trials.json"]
    assert all(fault in injected for fault in SOAK_FAULTS)


def _run_killed_at(chat_server, argv: list[str], kill_at: int) -> None:
    """Run ``apio argv`` in a subprocess that ``chat_server`` SIGKILLs when
    the ``kill_at``-th request from it arrives, before it is answered."""
    answer, start = chat_server.respond, len(chat_server.requests)
    process: list[subprocess.Popen] = []

    def killing(request: dict) -> Reply:
        if len(chat_server.requests) - start == kill_at:
            process[0].send_signal(signal.SIGKILL)
        return answer(request)

    chat_server.respond = killing
    try:
        process.append(subprocess.Popen(
            [sys.executable, "-c", "from apio.cli import entrypoint; entrypoint()", *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
        ))
        try:
            _, errors = process[0].communicate(timeout=60)
        finally:
            if process[0].poll() is None:
                process[0].kill()
                process[0].wait(timeout=10)
    finally:
        chat_server.respond = answer
    assert process[0].returncode == -signal.SIGKILL, errors


def test_live_optimize_killed_at_seeded_requests_resumes_to_the_uninterrupted_files(tmp_path, chat_server):
    """A live ``optimize`` process killed mid-run resumes from its cache: the
    files match the uninterrupted run's, and the requests sent again are at
    most those in flight at the kill, one per ``--workers`` thread: the main
    thread sends none. Counts are compared, not bodies: a parent's improve
    samples share one body, told apart only by the attempt tag."""
    chat_server.respond = answered_by(ScriptedBackend([ScriptEntry(**e) for e in script_entries()]))
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    workers = 4
    runs = ["--runs-dir", str(paths["runs"]), "--workers", str(workers)]

    def optimize(run_id: str, *flags: str) -> list[str]:
        return ["optimize", "--config", str(paths["config"]), "--run-id", run_id, *runs, *flags]

    assert main(["induce", "--config", str(paths["config"]), "--run-id", "full", *runs]) == 0
    before = len(chat_server.requests)
    assert main(optimize("full")) == 0
    full = len(chat_server.requests) - before

    names = ("trials.json", "prompt.txt", "state.json", "history.json", "best_prompt.txt", "final_report.json")
    for kill_at in sorted(random.Random(24).sample(range(1, full + 1), 3)):
        run_id = f"kill{kill_at}"
        assert main(["induce", "--config", str(paths["config"]), "--run-id", run_id, *runs]) == 0
        start = len(chat_server.requests)
        _run_killed_at(chat_server, optimize(run_id), kill_at)
        cut = paths["runs"] / run_id
        if json.loads((cut / "state.json").read_text(encoding="utf-8"))["phase"] == "induction":
            assert main(optimize(run_id)) == 0  # killed before its epoch-0 state: nothing to resume
        else:
            assert main(["optimize", "--resume", run_id, *runs]) == 0
        for name in names:
            uninterrupted = (paths["runs"] / "full" / name).read_bytes().replace(b'"full"', b'"x"')
            resumed = (cut / name).read_bytes().replace(f'"{run_id}"'.encode(), b'"x"')
            assert uninterrupted == resumed, (kill_at, name)
        sent = len(chat_server.requests) - start
        assert full <= sent <= full + workers, (kill_at, sent, full)


def test_live_induce_killed_at_seeded_requests_reruns_to_the_uninterrupted_files(tmp_path, chat_server):
    """A live ``induce`` process killed mid-run and run again with
    ``--force`` on its cache writes the uninterrupted run's files, and the
    requests sent again are at most those in flight at the kill. Each pair
    induces its own instruction, so no two trials score one prompt and
    send the same scoring requests at once."""
    scripted = answered_by(ScriptedBackend([ScriptEntry(**e) for e in script_entries()]))

    def answer(request: dict) -> Reply:
        content = request["json"]["messages"][0]["content"]
        if "Could you give an instruction" not in content:
            return scripted(request)
        tag = hashlib.sha256(content.encode("utf-8")).hexdigest()[:8]
        return Reply(body=completion(f'Replace "{tag}" with "{tag}".'))

    chat_server.respond = answer
    paths = make_workspace(tmp_path, n_trials=4, seed=1)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    workers = 4

    def induce(run_id: str, *flags: str) -> list[str]:
        return ["induce", "--config", str(paths["config"]), "--run-id", run_id, "--runs-dir", str(paths["runs"]),
                "--workers", str(workers), *flags]

    assert main(induce("full")) == 0
    full = len(chat_server.requests)
    trials = json.loads((paths["runs"] / "full" / "trials.json").read_text(encoding="utf-8"))["trials"]
    assert len({tuple(trial["instructions"]) for trial in trials}) == len(trials) == 4

    for kill_at in sorted(random.Random(25).sample(range(1, full + 1), 3)):
        run_id = f"kill{kill_at}"
        start = len(chat_server.requests)
        _run_killed_at(chat_server, induce(run_id), kill_at)
        assert main(induce(run_id, "--force")) == 0
        for name in ("prompt.txt", "trials.json", "state.json"):
            uninterrupted = (paths["runs"] / "full" / name).read_bytes().replace(b'"full"', b'"x"')
            rerun = (paths["runs"] / run_id / name).read_bytes().replace(f'"{run_id}"'.encode(), b'"x"')
            assert uninterrupted == rerun, (kill_at, name)
        sent = len(chat_server.requests) - start
        assert full <= sent <= full + workers + 1, (kill_at, sent, full)


def test_infer_failures_yield_placeholder_and_exit_1(tmp_path, capsys):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        closed_port = sock.getsockname()[1]
    prompt = tmp_path / "p.txt"
    _write_prompt(prompt)
    source = tmp_path / "in.txt"
    source.write_text("only line\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"backend": {"base_url": f"http://127.0.0.1:{closed_port}/v1", "retry_max": 0}}
    ))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source),
                 "--output", str(out), "--config", str(config)]) == 1
    assert out.read_text(encoding="utf-8") == "<FAILED>\n"
    assert "failed" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["infer", "baseline"])
def test_a_failing_line_is_sent_once(tmp_path, chat_server, capsys, command):
    chat_server.fallback = Reply(status=500)
    prompt, source, out, config = (tmp_path / name for name in ("p.txt", "in.txt", "out.txt", "cfg.json"))
    _write_prompt(prompt)
    source.write_text("only line\n\nonly line\n", encoding="utf-8")
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url, "retry_max": 0}}))
    kind = ["--prompt", str(prompt)] if command == "infer" else ["--kind", "zero_shot"]
    assert main([command, *kind, "--input", str(source), "--output", str(out), "--config", str(config)]) == 1
    # a repeated line is sent once, and every copy of it fails
    assert len(chat_server.requests) == 1
    assert out.read_text(encoding="utf-8") == "<FAILED>\n\n<FAILED>\n"
    assert capsys.readouterr().err == "2/3 lines failed\n"


@pytest.mark.parametrize("cache", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("command", ["infer", "baseline"])
def test_each_distinct_line_is_sent_once(tmp_path, chat_server, command, cache):
    """A repeated line is one request, with or without a cache, and its
    answer fills every copy; an empty line stays empty and sends nothing."""
    chat_server.respond = answered_by(rewrite_backend())
    prompt, source, out, config = (tmp_path / name for name in ("p.txt", "in.txt", "out.txt", "cfg.json"))
    _write_prompt(prompt)
    lines = ["a foo", "a foo", "", "b foo", "b foo", "b foo", "a foo", "", "c"]
    source.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    backend = {"base_url": chat_server.url, "cache_dir": str(tmp_path / "cache") if cache else None}
    config.write_text(json.dumps({"backend": backend}))
    kind = ["--prompt", str(prompt)] if command == "infer" else ["--kind", "zero_shot"]
    assert main([command, *kind, "--input", str(source), "--output", str(out), "--config", str(config),
                 "--workers", "8"]) == 0
    sent = [request["json"]["messages"][0]["content"] for request in chat_server.requests]
    assert len(sent) == len(set(sent)) == 3
    # the zero-shot prompt holds no rewrite rule, so its answer is the input
    answer = {"infer": lambda line: line.replace("foo", "bar"), "baseline": lambda line: line}[command]
    assert out.read_text(encoding="utf-8") == "".join(f"{answer(line)}\n" for line in lines)


def test_a_reply_nested_too_deeply_fails_only_its_line(tmp_path, chat_server, capsys):
    """A 200 whose JSON is nested too deeply to parse is a malformed reply:
    it spends the retry budget, then fails its line, with no traceback."""
    chat_server.respond = lambda request: (
        Reply(body=TOO_DEEP) if "Input: deep\n" in request["json"]["messages"][0]["content"] else Reply()
    )
    prompt, source, out, config = (tmp_path / name for name in ("p.txt", "in.txt", "out.txt", "cfg.json"))
    _write_prompt(prompt)
    source.write_text("deep\nflat\n", encoding="utf-8")
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url, "retry_max": 1}}))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
                 "--config", str(config)]) == 1
    assert len(chat_server.requests) == 3
    assert out.read_text(encoding="utf-8") == "<FAILED>\nok\n"
    assert capsys.readouterr().err == "1/2 lines failed\n"


def test_two_infer_processes_share_one_cache(tmp_path, chat_server):
    chat_server.respond = answered_by(rewrite_backend())
    prompt, source, config = tmp_path / "p.txt", tmp_path / "in.txt", tmp_path / "cfg.json"
    _write_prompt(prompt)
    lines = [f"line {i % 24} foo" for i in range(40)]
    source.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    cache = tmp_path / "cache"
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url, "cache_dir": str(cache)}}))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", "from apio.cli import entrypoint; entrypoint()", "infer", "--prompt", str(prompt),
             "--input", str(source), "--output", str(tmp_path / f"out{i}.txt"), "--config", str(config),
             "--workers", "4"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        for i in range(2)
    ]
    try:
        errors = [run.communicate(timeout=60)[1] for run in runs]
    finally:
        for run in runs:
            if run.poll() is None:
                run.kill()
                run.wait(timeout=10)
    assert [run.returncode for run in runs] == [0, 0], errors
    expected = "".join(f"{line.replace('foo', 'bar')}\n" for line in lines)
    assert (tmp_path / "out0.txt").read_text(encoding="utf-8") == expected
    assert (tmp_path / "out1.txt").read_text(encoding="utf-8") == expected
    with contextlib.closing(sqlite3.connect(cache / "completions.sqlite3")) as db:
        stored = db.execute("SELECT response_text FROM completions").fetchall()
    assert sorted(text for (text,) in stored) == sorted({line.replace("foo", "bar") for line in lines})
    # each distinct line went out at least once and at most once per process
    assert 24 <= len(chat_server.requests) <= 48


def test_live_infer_loads_only_stdlib_and_apio(tmp_path, chat_server):
    prompt, source = tmp_path / "p.txt", tmp_path / "in.txt"
    _write_prompt(prompt)
    source.write_text("a foo\nb foo\n", encoding="utf-8")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"backend": {"base_url": chat_server.url, "cache_dir": str(tmp_path / "cache")}}
    ))
    # modules loaded by site before apio is imported are not apio's doing
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from apio.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "allowed = sys.stdlib_module_names | {'apio'}\n"
        "loaded = sorted(m for m in set(sys.modules) - before if m.partition('.')[0] not in allowed)\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run(
        [sys.executable, "-c", probe, "infer", "--config", str(config), "--prompt", str(prompt),
         "--input", str(source), "--output", str(tmp_path / "out.txt")],
        check=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60,
    )
    assert len(chat_server.requests) == 2


# -- evaluate -----------------------------------------------------------------


def test_evaluate_simplify_known_value(tmp_path):
    source = tmp_path / "src.txt"
    source.write_text("the big cat\na b\n", encoding="utf-8")
    refs = tmp_path / "refs.txt"
    refs.write_text("the cat\na b\n", encoding="utf-8")
    predictions = tmp_path / "pred.txt"
    predictions.write_text("the big cat\na b\n", encoding="utf-8")  # copy
    report_path = tmp_path / "report.json"
    code = main(
        ["evaluate", "--task", "simplify", "--predictions", str(predictions),
         "--source", str(source), "--references", str(refs), "--output", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["metric"] == "sari-sentence-mean"
    assert report["n"] == 2
    # hand-computed: copy vs shorter ref = 20/3, identical pair = 50/3
    assert report["per_sample"][0] == pytest.approx(20 / 3, abs=1e-9)
    assert report["per_sample"][1] == pytest.approx(50 / 3, abs=1e-9)
    assert report["aggregate"] == pytest.approx(35 / 3, abs=1e-9)


GOLD_M2 = (
    "S she go home\n"
    "A 1 2|||R:VERB|||goes|||REQUIRED|||-NONE-|||0\n"
    "\n"
    "S a b c\n"
    "A 0 1|||R:X|||A|||REQUIRED|||-NONE-|||0\n"
    "A 2 3|||R:Y|||C|||REQUIRED|||-NONE-|||0\n"
)


def test_evaluate_gec_copy_is_zero(tmp_path):
    gold = tmp_path / "gold.m2"
    gold.write_text(GOLD_M2, encoding="utf-8")
    predictions = tmp_path / "pred.txt"
    predictions.write_text("she go home\na b c\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--task", "gec", "--predictions", str(predictions),
                 "--m2", str(gold), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["metric"] == "f05-approx"
    assert report["aggregate"] == 0.0
    lev = json.loads(report_path.with_suffix(".levenshtein.json").read_text(encoding="utf-8"))
    assert lev["aggregate"] == pytest.approx(1.5)


def test_evaluate_report_aggregates_recomputable(tmp_path):
    # f05 reports carry per-sentence TP/FP/FN; the corpus score must equal
    # the documented reduction of those triples
    from apio.metrics.gec import f05_from_counts

    gold = tmp_path / "gold.m2"
    gold.write_text(GOLD_M2, encoding="utf-8")
    predictions = tmp_path / "pred.txt"
    predictions.write_text("she goes home\na b x\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--task", "gec", "--predictions", str(predictions),
                 "--m2", str(gold), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    tp = sum(row[0] for row in report["per_sample"])
    fp = sum(row[1] for row in report["per_sample"])
    fn = sum(row[2] for row in report["per_sample"])
    assert report["aggregate"] == pytest.approx(f05_from_counts(tp, fp, fn))

    # mean-style reports: aggregate equals the mean of per_sample
    lev = json.loads(report_path.with_suffix(".levenshtein.json").read_text(encoding="utf-8"))
    assert lev["aggregate"] == pytest.approx(sum(lev["per_sample"]) / lev["n"])


def test_evaluate_gec_gold_predictions_score_one(tmp_path):
    gold = tmp_path / "gold.m2"
    gold.write_text(GOLD_M2, encoding="utf-8")
    records = load_m2(gold)
    predictions = tmp_path / "pred.txt"
    predictions.write_text(
        "".join(apply_edits(r, 0) + "\n" for r in records), encoding="utf-8"
    )
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--task", "gec", "--predictions", str(predictions),
                 "--m2", str(gold), "--output", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["aggregate"] == 1.0


def test_evaluate_simplify_empty_gold_exits_2_naming_it(tmp_path, capsys):
    # empty predictions would align with empty gold and score 0 over 0 samples
    files = {name: tmp_path / f"{name}.txt" for name in ("source", "references", "predictions")}
    for path in files.values():
        path.write_text("", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main(["evaluate", "--task", "simplify", "--predictions", str(files["predictions"]),
                 "--source", str(files["source"]), "--references", str(files["references"]),
                 "--output", str(report)]) == 2
    assert f"{files['source']}: file is empty" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_generic_scores_the_word_distance_to_its_gold(tmp_path, capsys):
    gold, predictions, report = tmp_path / "gold.jsonl", tmp_path / "pred.txt", tmp_path / "report.json"
    gold.write_text('{"source": "a b", "references": ["a c", "x"]}\n{"source": "d", "references": ["d"]}\n',
                    encoding="utf-8")
    predictions.write_text("a b\nd\n", encoding="utf-8")
    argv = ["evaluate", "--task", "generic", "--predictions", str(predictions), "--output", str(report)]
    assert main(argv) == 2
    assert "generic evaluation needs --gold <jsonl file>" in capsys.readouterr().err
    assert not report.exists()
    assert main([*argv, "--gold", str(gold)]) == 0
    assert json.loads(report.read_text(encoding="utf-8")) == {
        "metric": "word-levenshtein-min-ref", "aggregate": 0.5, "n": 2, "per_sample": [1, 0]}


def test_evaluate_length_mismatch_exits_2(tmp_path):
    gold = tmp_path / "gold.m2"
    gold.write_text(GOLD_M2, encoding="utf-8")
    predictions = tmp_path / "pred.txt"
    predictions.write_text("only one line\n", encoding="utf-8")
    assert main(["evaluate", "--task", "gec", "--predictions", str(predictions),
                 "--m2", str(gold), "--output", str(tmp_path / "r.json")]) == 2


# -- baseline -----------------------------------------------------------------


def test_baseline_copy_identical(tmp_path):
    paths = make_workspace(tmp_path)
    source = tmp_path / "in.txt"
    source.write_text("a foo\nplain line\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["baseline", "--kind", "copy", "--input", str(source), "--output", str(out),
                 "--config", str(paths["config"])]) == 0
    assert out.read_bytes() == source.read_bytes()
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["kind"] == "copy"


def test_baseline_zero_shot_records_prompt_verbatim(tmp_path, chat_server):
    chat_server.fallback = Reply(body=completion("out"))
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text())
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config))
    source = tmp_path / "in.txt"
    source.write_text("a foo\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    template = tmp_path / "zs.txt"
    template.write_text("Rewrite the text plainly.\n", encoding="utf-8")
    assert main(["baseline", "--kind", "zero_shot", "--input", str(source), "--output", str(out),
                 "--config", str(paths["config"]), "--prompt-file", str(template)]) == 0
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["prompt_text"] == "Rewrite the text plainly."
    assert out.read_text() == "out\n"


# each task's default zero-shot instruction, and the footer its request ends with
ZERO_SHOT = {
    "gec": ("Correct all grammatical errors in the given sentence. Output only the corrected sentence; "
            "if the sentence is already correct, output it unchanged.",
            "Sentence: She go home\nCorrected sentence:"),
    "simplify": ("Rewrite the given complex sentence as simpler, easier-to-understand text while preserving "
                 "its original meaning. Output only the simplified text.",
                 "Complex sentence: She go home\nSimple sentence:"),
    "generic": ("Rewrite the given input according to the task demonstrated by the data. "
                "Output only the rewritten text.",
                "Input: She go home\nOutput:"),
}


@pytest.mark.parametrize("task", list(ZERO_SHOT))
def test_baseline_zero_shot_default_template_by_task(tmp_path, chat_server, task):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url}}))
    source = tmp_path / "in.txt"
    source.write_text("She go home\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["baseline", "--kind", "zero_shot", "--task", task, "--config", str(config),
                 "--input", str(source), "--output", str(out)]) == 0
    instruction, footer = ZERO_SHOT[task]
    assert [r["json"]["messages"][0]["content"] for r in chat_server.requests] == [f"{instruction}\n\n{footer}"]
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta == {"kind": "zero_shot", "task": task, "seed": 0, "prompt_text": instruction}


def test_baseline_few_shot_request_bytes(tmp_path, chat_server):
    """A few-shot request is the instruction, each exemplar as an input and
    an output line, then the footer, one blank line apart."""
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text())
    config["backend"] = {"base_url": chat_server.url}
    paths["config"].write_text(json.dumps(config))
    source, out = tmp_path / "in.txt", tmp_path / "out.txt"
    source.write_text("a foo here\n", encoding="utf-8")
    assert main(["baseline", "--kind", "few_shot", "--shots", "2", "--seed", "3", "--input", str(source),
                 "--output", str(out), "--config", str(paths["config"])]) == 0
    assert [r["json"]["messages"][0]["content"] for r in chat_server.requests] == [
        f"{ZERO_SHOT['generic'][0]}\n\n"
        "Input: foo here now\nOutput: bar here now\n\n"
        "Input: foo on the mat\nOutput: bar on the mat\n\n"
        "Input: a foo here\nOutput:"
    ]
    assert json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8")) == {
        "kind": "few_shot", "task": "generic", "seed": 3, "prompt_text": ZERO_SHOT["generic"][0],
        "shots": 2, "exemplar_ids": ["toy-2", "toy-9"],
    }


def test_baseline_few_shot_exemplars_recorded_and_rendered(tmp_path):
    paths = make_workspace(tmp_path)
    source = tmp_path / "in.txt"
    source.write_text("a foo here\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    script = tmp_path / "s.json"
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules"}]))
    assert main(["baseline", "--kind", "few_shot", "--shots", "2", "--seed", "3",
                 "--input", str(source), "--output", str(out),
                 "--config", str(paths["config"]), "--script", str(script)]) == 0
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert meta["shots"] == 2
    assert len(meta["exemplar_ids"]) == 2
    assert all(e.startswith("toy-") for e in meta["exemplar_ids"])


def test_baseline_workers_preserve_order(tmp_path):
    source = tmp_path / "in.txt"
    lines = [f"item {i} foo" if i % 3 else "" for i in range(40)]
    source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    script = tmp_path / "s.json"
    # the zero-shot prompt has no rule bullets, so each output is its input
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules"}]))
    sequential, parallel = tmp_path / "seq.txt", tmp_path / "par.txt"
    base = ["baseline", "--kind", "zero_shot", "--input", str(source),
            "--script", str(script)]
    assert main([*base, "--output", str(sequential), "--workers", "1"]) == 0
    assert main([*base, "--output", str(parallel), "--workers", "4"]) == 0
    assert parallel.read_bytes() == sequential.read_bytes() == source.read_bytes()


@pytest.mark.parametrize("kind", ["zero_shot", "few_shot"])
def test_baseline_failures_yield_placeholder_and_exit_1(tmp_path, capsys, kind):
    paths = make_workspace(tmp_path)
    paths["script"].write_text(json.dumps([{"match": "never matches", "response": "x"}]), encoding="utf-8")
    source, out = tmp_path / "in.txt", tmp_path / "out.txt"
    source.write_text("a foo\n\nb foo\n", encoding="utf-8")
    assert main(["baseline", "--kind", kind, "--input", str(source), "--output", str(out),
                 "--config", str(paths["config"]), "--script", str(paths["script"])]) == 1
    assert out.read_text(encoding="utf-8") == "<FAILED>\n\n<FAILED>\n"
    assert capsys.readouterr() == ("", "2/3 lines failed\n")
    assert json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))["kind"] == kind


def test_baseline_few_shot_insufficient_train_exits_2(tmp_path):
    paths = make_workspace(tmp_path)
    source = tmp_path / "in.txt"
    source.write_text("x\n", encoding="utf-8")
    assert main(["baseline", "--kind", "few_shot", "--shots", "99",
                 "--input", str(source), "--output", str(tmp_path / "o.txt"),
                 "--config", str(paths["config"]),
                 "--script", str(paths["script"])]) == 2


def test_baseline_few_shot_below_one_shot_exits_2(tmp_path, capsys):
    source, out = tmp_path / "in.txt", tmp_path / "o.txt"
    source.write_text("x\n", encoding="utf-8")
    argv = ["baseline", "--kind", "few_shot", "--shots", "0", "--input", str(source), "--output", str(out)]
    assert main(argv) == 2
    assert "--shots: must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


# -- the files a command is given --------------------------------------------


def _command_files(tmp_path: Path) -> dict[str, dict[str, Path | str]]:
    """For ``infer``, ``evaluate`` (gec, and its ``-simplify`` and
    ``-generic`` variants) and ``baseline`` (zero-shot, and ``-copy``),
    the flags of a call that exits 0, each mapped to its file or value."""
    names = ("p.txt", "in.txt", "s.json", "gold.m2", "pred.txt", "zs.txt", "gold.jsonl", "ref.txt")
    files = {name: tmp_path / name for name in names}
    _write_prompt(files["p.txt"])
    files["in.txt"].write_text("a foo\n", encoding="utf-8")
    files["s.json"].write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules"}]))
    files["gold.m2"].write_text(GOLD_M2, encoding="utf-8")
    files["pred.txt"].write_text("she go home\na b c\n", encoding="utf-8")
    files["zs.txt"].write_text("Rewrite the text.\n", encoding="utf-8")
    files["gold.jsonl"].write_text('{"source": "a", "references": ["b"]}\n{"source": "c", "references": ["d"]}\n',
                                   encoding="utf-8")
    files["ref.txt"].write_text("she goes home\na b c\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    return {
        "infer": {"--prompt": files["p.txt"], "--input": files["in.txt"], "--output": out, "--script": files["s.json"]},
        "evaluate": {"--task": "gec", "--m2": files["gold.m2"], "--predictions": files["pred.txt"], "--output": out},
        "evaluate-simplify": {"--task": "simplify", "--source": files["pred.txt"], "--references": files["ref.txt"],
                              "--predictions": files["pred.txt"], "--output": out},
        "evaluate-generic": {"--task": "generic", "--gold": files["gold.jsonl"], "--predictions": files["pred.txt"],
                             "--output": out},
        "baseline": {"--kind": "zero_shot", "--prompt-file": files["zs.txt"], "--input": files["in.txt"],
                     "--output": out, "--script": files["s.json"]},
        "baseline-copy": {"--kind": "copy", "--input": files["in.txt"], "--output": out},
    }


def _argv(case: str, flags: dict[str, Path | str]) -> list[str]:
    """The command line of a ``_command_files`` case with ``flags``."""
    command = case.partition("-")[0]
    return [command, *itertools.chain.from_iterable((flag, str(value)) for flag, value in flags.items())]


def _served(tmp_path: Path, flags: dict[str, Path | str], url: str) -> dict[str, Path | str]:
    """``flags`` with their ``--script`` replaced by a config that sends
    requests to the chat server at ``url``."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"backend": {"base_url": url}}), encoding="utf-8")
    return {**{flag: value for flag, value in flags.items() if flag != "--script"}, "--config": config}


@pytest.mark.parametrize(
    ("command", "flag"),
    [("infer", "--input"), ("infer", "--prompt"), ("infer", "--config"), ("infer", "--script"),
     ("infer", "--output"), ("evaluate", "--m2"), ("evaluate", "--predictions"), ("evaluate", "--output")],
)
def test_directory_given_for_a_file_exits_2_naming_it(tmp_path, capsys, command, flag):
    flags = _command_files(tmp_path)[command]
    assert main(_argv(command, flags)) == 0
    capsys.readouterr()
    directory = tmp_path / "a-directory"
    directory.mkdir()
    assert main(_argv(command, {**flags, flag: directory})) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(directory) in err
    assert not list(tmp_path.glob("*.tmp"))  # a report whose rename failed leaves no temp file


@pytest.mark.parametrize(
    ("where", "command"),
    [(where, command) for where in ("a-directory", "in-no-directory", "temp-a-directory")
     for command in ("infer", "baseline", "baseline-copy", "evaluate", "evaluate-simplify", "evaluate-generic")]
    # the commands that write a second file beside --output
    + [(where, command) for where in ("sidecar-a-directory", "sidecar-temp-a-directory")
       for command in ("baseline", "baseline-copy", "evaluate")],
)
def test_unwritable_output_exits_2_before_any_request(tmp_path, capsys, chat_server, command, where):
    chat_server.fallback = Reply(body=completion("out"))
    flags = _command_files(tmp_path)[command]
    sent = 1 if "--script" in flags else 0  # infer and the zero-shot baseline send the one input line
    if sent:
        flags = _served(tmp_path, flags, chat_server.url)
    assert main(_argv(command, flags)) == 0
    assert len(chat_server.requests) == sent
    capsys.readouterr()
    output = tmp_path / "out-dir"
    if where == "a-directory":
        output.mkdir()
        expected = f"error: --output {output} is a directory\n"
    elif where == "in-no-directory":
        output = output / "out.txt"
        expected = f"error: --output {output}: {output.parent} is not a directory\n"
    else:  # a directory where the command writes the output's temp file, its sidecar or the sidecar's temp file
        output = tmp_path / "rep.txt"
        blocker = tmp_path / ("rep.levenshtein.json" if command == "evaluate" else "rep.txt.meta.json")
        if where == "temp-a-directory":
            blocker = tmp_path / "rep.txt.tmp"
        elif where == "sidecar-temp-a-directory":
            blocker = blocker.with_name(blocker.name + ".tmp")
        blocker.mkdir()
        expected = f"error: --output {output}: {blocker} is a directory\n"
    files = sorted(tmp_path.rglob("*"))
    assert main(_argv(command, {**flags, "--output": output})) == 2
    assert capsys.readouterr().err == expected
    assert len(chat_server.requests) == sent
    assert sorted(tmp_path.rglob("*")) == files  # no report, no out-dir.levenshtein.json, no temp file


@pytest.mark.parametrize("command", ["infer", "baseline-copy"])
def test_write_that_fails_part_way_leaves_the_old_output_and_no_temp_file(tmp_path, capsys, monkeypatch, command):
    flags = _command_files(tmp_path)[command]
    flags["--output"].write_text("old\n", encoding="utf-8")
    write_text = Path.write_text

    def fails_part_way(path, text, *args, **kwargs):
        write_text(path, text[: len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", fails_part_way)
    assert main(_argv(command, flags)) == 2
    monkeypatch.undo()
    assert "No space left on device" in capsys.readouterr().err
    assert flags["--output"].read_text(encoding="utf-8") == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_rejected_key_ends_infer_at_once_with_no_output(tmp_path, capsys, chat_server):
    chat_server.fallback = Reply(status=401)
    flags = _served(tmp_path, _command_files(tmp_path)["infer"], chat_server.url)
    flags["--input"].write_text("".join(f"line {i}\n" for i in range(20)), encoding="utf-8")
    assert main(_argv("infer", {**flags, "--workers": "1"})) == 1
    # the first line's request, and at most the one a worker took up before the pool was shut
    assert 1 <= len(chat_server.requests) <= 2
    assert not flags["--output"].exists()
    assert capsys.readouterr().err == "engine failure: authentication failed (401)\n"


# (case, the file made not UTF-8): data files through ``induce``, the
# files of ``infer``, ``evaluate`` and ``baseline``, and prompt files
NOT_UTF8 = ["data-jsonl", "data-asset-source", "data-asset-reference", "data-m2", "infer-input", "infer-prompt",
            "optimize-prompt", "evaluate-predictions", "evaluate-m2", "evaluate-gold", "evaluate-references",
            "baseline-input", "baseline-prompt-file"]


@pytest.mark.parametrize("case", NOT_UTF8)
def test_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, case):
    paths = make_workspace(tmp_path / "ws")
    command, _, what = case.partition("-")
    if command in ("data", "optimize"):
        if what.startswith("asset"):
            _asset_config(paths, [tmp_path / "ref.txt"])
        elif what == "m2":
            paths["data"] = _gec_m2_workspace(tmp_path / "ws")["gold"]
        argv = ["induce" if command == "data" else "optimize", "--config", str(paths["config"]),
                "--run-id", "r1", "--runs-dir", str(paths["runs"]), "--script", str(paths["script"])]
        bad = {"jsonl": paths["data"], "m2": paths["data"], "asset-source": tmp_path / "ws" / "source.txt",
               "asset-reference": tmp_path / "ref.txt", "prompt": tmp_path / "seed.txt"}[what]
        if what == "prompt":
            _write_prompt(bad)
            argv += ["--prompt", str(bad)]
    else:
        variant = {"gold": "-generic", "references": "-simplify"}.get(what, "")
        flags = _command_files(tmp_path)[command + variant]
        argv = _argv(command, flags)
        bad = flags[f"--{what}"]
    assert main(argv) == 0
    capsys.readouterr()
    bad.write_bytes(b"caf\xe9 " + bad.read_bytes())
    assert main(argv) == 2
    assert f"error: {bad} is not UTF-8: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err


# case: (the command of ``_command_files``, or ``induce`` on the toy
# workspace; the flag whose file gets the text, whose value the text
# replaces when it names no file, or that is dropped when the text is None;
# the text; the error, given the file or value)
REFUSED = {
    "script-empty": ("infer", "--script", "[]", "script file {}: script must be non-empty"),
    "data-format-unknown": ("induce", "--config", '{"data": {"format": "csv"}}', "unknown data format 'csv'"),
    "data-m2-without-path": ("induce", "--config", '{"data": {"format": "m2"}}', "data.path is required for m2 format"),
    "jsonl-invalid-json": ("evaluate-generic", "--gold", '{"source": "a"\n', "{}:1: invalid JSON: "),
    "jsonl-blank-lines": ("evaluate-generic", "--gold", "\n  \n\n", "{}: file is empty"),
    "m2-empty": ("evaluate", "--m2", "\n\n", "{}: file is empty"),
    "m2-without-s-line": ("evaluate", "--m2", "A 0 1|||R:X|||x|||REQUIRED|||-NONE-|||0\n",
                          "{}:1: record must start with an 'S ' line"),
    "m2-without-a-line": ("evaluate", "--m2", "S she go home\nS a b c\n", "{}:2: expected an 'A ' edit line"),
    "m2-one-number-span": ("evaluate", "--m2", "S she go home\nA 1|||R:VERB|||goes|||REQUIRED|||-NONE-|||0\n",
                           "{}:2: span must be two integers"),
    "m2-annotator-not-an-integer": ("evaluate", "--m2",
                                    "S she go home\nA 1 2|||R:VERB|||goes|||REQUIRED|||-NONE-|||first\n",
                                    "{}:2: non-integer annotator id"),
    "prompt-without-bullets": ("infer", "--prompt", "Do x.\nInput: {input_text}\nOutput:\n",
                               "{}: prompt text has no '* ' instruction lines"),
    "prompt-bullets-apart": ("infer", "--prompt", "* Do x.\nThen:\n* Do y.\nInput: {input_text}\nOutput:\n",
                             "{}: instruction bullets must be contiguous"),
    "prompt-two-footer-slots": ("infer", "--prompt", "* Do x.\nInput: {input_text}\nAgain: {input_text}\nOutput:\n",
                                "{}: prompt footer must contain the '{{input_text}}' slot exactly once"),
    "simplify-without-source": ("evaluate-simplify", "--source", None,
                                "simplify evaluation needs --source and --references"),
    "gec-without-m2": ("evaluate", "--m2", None, "gec evaluation needs --m2 <gold file>"),
    **{f"run-id-{name}": ("induce", "--run-id", run_id, "run id {!r} must be one path component")
       for name, run_id in [("empty", ""), ("dot", "."), ("dot-dot", ".."), ("parent", "../escaped"),
                            ("two-components", "a/b"), ("nul", "a\0b")]},
}


@pytest.mark.parametrize("case", REFUSED)
def test_refused_input_exits_2_naming_it(tmp_path, capsys, case):
    command, flag, text, message = REFUSED[case]
    if command == "induce":
        paths = make_workspace(tmp_path)
        flags = {"--config": paths["config"], "--run-id": "r1", "--runs-dir": paths["runs"], "--script": paths["script"]}
    else:
        flags = _command_files(tmp_path)[command]
    assert main(_argv(command, flags)) == 0
    capsys.readouterr()
    if text is None:
        del flags[flag]
    elif isinstance(flags[flag], Path):
        flags[flag].write_text(text, encoding="utf-8")
    else:
        flags[flag] = text
    assert main(_argv(command, flags)) == 2
    assert capsys.readouterr().err.startswith(f"error: {message.format(flags.get(flag))}")


def test_a_run_id_that_is_not_one_path_component_writes_nothing(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    common = ["--runs-dir", str(paths["runs"]), "--script", str(paths["script"])]
    for run_id in (".", "../outside", str(tmp_path / "outside")):
        for argv in (["induce", "--config", str(paths["config"]), "--run-id", run_id],
                     ["optimize", "--config", str(paths["config"]), "--run-id", run_id],
                     ["optimize", "--resume", run_id]):
            assert main(argv + common) == 2
            assert capsys.readouterr().err.startswith(f"error: run id {run_id!r} must be one path component")
    assert sorted(tmp_path.rglob("*")) == before


def test_a_run_without_run_id_is_named_by_its_start_time(tmp_path):
    paths = make_workspace(tmp_path)
    earliest = time.strftime("run-%Y%m%d-%H%M%S")
    assert main(["induce", "--config", str(paths["config"]), "--runs-dir", str(paths["runs"]),
                 "--script", str(paths["script"])]) == 0
    latest = time.strftime("run-%Y%m%d-%H%M%S")
    [run] = paths["runs"].iterdir()
    assert re.fullmatch(r"run-\d{8}-\d{6}", run.name)
    assert earliest <= run.name <= latest
    assert json.loads((run / "state.json").read_text(encoding="utf-8"))["run_id"] == run.name


def test_entrypoint_exits_with_mains_code(tmp_path, monkeypatch, capsys):
    copy = _argv("baseline-copy", _command_files(tmp_path)["baseline-copy"])
    for argv, code in ((copy, 0), (["optimize", "--resume", ".."], 2)):
        monkeypatch.setattr(sys, "argv", ["apio", *argv])
        with pytest.raises(SystemExit) as exited:
            entrypoint()
        assert exited.value.code == code
    assert "error: run id '..' must be one path component" in capsys.readouterr().err


def test_module_run_of_the_cli_is_the_apio_command(tmp_path):
    # `python -m apio.cli` runs the same entry point as the `apio` script
    missing = tmp_path / "missing.json"
    done = subprocess.run(
        [sys.executable, "-m", "apio.cli", "induce", "--config", str(missing)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and "missing.json" in done.stderr


def _apio_exception_classes() -> list[type[Exception]]:
    """Every ``Exception`` subclass defined in an ``apio`` module, once all are imported."""
    for module in pkgutil.walk_packages(apio.__path__, "apio."):
        importlib.import_module(module.name)
    found, todo = [], [Exception]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.partition(".")[0] == "apio" and cls not in found:
                found.append(cls)
    return found


APIO_EXCEPTIONS = _apio_exception_classes()


def test_the_exception_classes_are_the_four_outcomes():
    assert sorted(cls.__name__ for cls in APIO_EXCEPTIONS) == [
        "ConfigurationError", "CredentialError", "GatewayError", "PromptError"]


@pytest.mark.parametrize("cls", APIO_EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_every_apio_exception_maps_to_an_exit_code(tmp_path, capsys, monkeypatch, cls):
    def raises(args):
        raise cls("boom")

    monkeypatch.setattr("apio.cli.cmd_evaluate", raises)
    code = main(["evaluate", "--task", "generic", "--predictions", "p.txt", "--output", str(tmp_path / "o.json")])
    if issubclass(cls, (ValueError, OSError)):
        assert (code, capsys.readouterr().err) == (2, "error: boom\n")
    else:
        assert (code, capsys.readouterr().err) == (1, "engine failure: boom\n")


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
