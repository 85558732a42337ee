from __future__ import annotations

import contextlib
import fcntl
import itertools
import json
import logging
import os
import random
import signal
import socket
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import apio
from apio.cli import main
from apio.corpus import apply_edits, load_m2
from apio.gateway import INFER, ScriptedBackend, ScriptExhaustedError
from apio.state import RunDir
from conftest import Reply, completion
from m2gen import random_record, serialize_m2
from toytask import PLANTED, make_workspace

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


def test_induce_missing_dataset_path_exits_2(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    config = json.loads(paths["config"].read_text())
    config["data"]["path"] = str(tmp_path / "missing.jsonl")
    paths["config"].write_text(json.dumps(config))
    assert _induce(paths, run_id="r2") == 2
    assert "missing.jsonl" in capsys.readouterr().err


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
    # trial 1 induces "Rule two." and no script entry answers its inference
    paths["script"].write_text(json.dumps([
        {"match": INDUCE_MATCH, "response": "Rule one."},
        {"match": INDUCE_MATCH, "response": "Rule two.", "sticky": True},
        {"match": "* Rule one.\n", "mode": "rewrite_rules", "sticky": True},
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
    # trial 0 fails to induce after its retry, no entry answers trial 1's
    # inference, and trials 2 and 3 score on all 8 dev pairs
    paths["script"].write_text(json.dumps([
        {"match": INDUCE_MATCH, "response": "bad\nline"},
        {"match": INDUCE_MATCH, "response": "worse\nline"},
        {"match": INDUCE_MATCH, "response": "Rule two."},
        {"match": INDUCE_MATCH, "response": "Rule one.", "sticky": True},
        {"match": "* Rule one.\n", "mode": "rewrite_rules", "sticky": True},
    ]))
    assert _induce(paths, extra=("--workers", workers)) == 0
    trials = json.loads((paths["runs"] / "r1" / "trials.json").read_text())["trials"]
    assert [t["backend_calls"] for t in trials] == [2, 9, 9, 9]
    assert [t["dev_evaluations"] for t in trials] == [0, 0, 1, 1]
    assert [t["error"] is None for t in trials] == [False, False, True, True]


def test_induce_exhausted_script_is_engine_failure(tmp_path):
    paths = make_workspace(tmp_path)
    paths["script"].write_text(json.dumps([{"match": "never matches", "response": "x"}]))
    assert _induce(paths, run_id="r3") == 1


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
        "script-sticky-not-a-boolean",
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
            "script-sticky-not-a-boolean": [*entries, {"match": "x", "sticky": "false"}],
        }[broken]), encoding="utf-8")
    else:
        data = json.loads(state.read_text(encoding="utf-8"))
        if broken in ("state-without-pool", "state-without-backend"):
            del data[broken.split("-")[-1]]
        elif broken == "state-pool-entry-without-prompt":
            del data["pool"][0]["prompt"]
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
            }[broken]
            data[key] = value
        state.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["optimize", "--resume", "r1", "--runs-dir", str(paths["runs"])]) == 2
    named = {"state": state, "script": paths["script"]}.get(broken.split("-")[0], history)
    assert str(named) in capsys.readouterr().err
    lock = RunDir(paths["runs"], "r1")
    lock.acquire_lock()  # nothing holds the run any more
    lock.release_lock()


def test_corrupt_state_is_integrity_error(tmp_path, capsys):
    paths = make_workspace(tmp_path)
    state = paths["runs"] / "broken" / "state.json"
    state.parent.mkdir(parents=True)
    state.write_text("{not json", encoding="utf-8")
    assert main(["optimize", "--resume", "broken", "--runs-dir", str(paths["runs"])]) == 2
    assert "corrupt" in capsys.readouterr().err


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


def test_kill_at_any_call_of_optimize_resumes_to_identical_files(tmp_path, no_network, monkeypatch):
    import apio.cli as cli

    paths = make_workspace(tmp_path, n_epochs=3, beam_b=4)
    workers = ("--workers", "4")
    # the calls sent by the end of the seed scoring and of each epoch
    marks, backends = [], []
    persist = cli._persist_epoch

    def recording(run, cfg, args, backend, *rest):
        marks.append(backend.n_calls)
        backends.append(backend)
        persist(run, cfg, args, backend, *rest)

    monkeypatch.setattr(cli, "_persist_epoch", recording)
    assert _induce(paths, run_id="full", extra=workers) == 0
    assert _optimize(paths, run_id="full", extra=workers) == 0
    monkeypatch.undo()
    seed, *epochs, total = *marks, backends[-1].n_calls
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

    def run(runs_dir, workers, extra=()):
        args = ["--config", str(paths["config"]), "--run-id", "r", "--runs-dir", str(runs_dir),
                "--script", str(paths["script"]), "--workers", str(workers)]
        assert main(["induce", *args]) == 0
        assert main(["optimize", *args, *extra]) == 0

    run(tmp_path / "one", 1)
    run(tmp_path / "eight", 8)
    # stopped at concurrency 1, resumed without --workers at the default
    run(tmp_path / "resumed", 1, extra=("--stop-after-epoch", "3"))
    assert main(["optimize", "--resume", "r", "--runs-dir", str(tmp_path / "resumed")]) == 0
    assert pool_sizes == [1, 1, 8, 8, 1, 1, cli.DEFAULT_WORKERS]
    names = ("trials.json", "state.json", "history.json", "best_prompt.txt", "final_report.json")
    for other in ("eight", "resumed"):
        for name in names:
            expected = (tmp_path / "one" / "r" / name).read_bytes()
            assert (tmp_path / other / "r" / name).read_bytes() == expected, (other, name)


def test_failed_child_scoring_drops_only_that_child(tmp_path, monkeypatch, caplog):
    failing = 'Replace "q1" with "q1".'
    scripted = ScriptedBackend._complete

    def complete(self, request):
        if request.profile == INFER and failing in request.text():
            raise ScriptExhaustedError("injected inference failure")
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


def test_interrupted_epoch_cancels_queued_scoring(tmp_path, monkeypatch):
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=6)
    assert _induce(paths) == 0
    scripted = ScriptedBackend._complete
    sent, at_interrupt = [], []

    def complete(self, request):
        if request.profile == INFER:
            time.sleep(0.005)
            sent.append(request)
        elif "Generate a variation" in request.text():
            at_interrupt.append(len(sent))
            raise KeyboardInterrupt
        return scripted(self, request)

    monkeypatch.setattr(ScriptedBackend, "_complete", complete)
    with pytest.raises(KeyboardInterrupt):
        _optimize(paths, extra=("--workers", "1"))
    # the four improve children queued 8 dev requests each before the
    # first rephrase request; only the one already running still finishes
    assert len(sent) - at_interrupt[0] <= 1


def test_final_report_queues_all_six_scorings_before_waiting(tmp_path, monkeypatch):
    import apio.cli as cli

    paths = make_workspace(tmp_path, n_epochs=2, beam_b=6)
    assert _induce(paths) == 0
    events = []
    submit, gather = cli.submit_scoring, cli.gather_scoring
    monkeypatch.setattr(cli, "submit_scoring", lambda *a: events.append("submit") or submit(*a))
    monkeypatch.setattr(cli, "gather_scoring", lambda scoring: events.append("gather") or gather(scoring))
    assert _optimize(paths) == 0
    report = json.loads((paths["runs"] / "r1" / "final_report.json").read_text(encoding="utf-8"))
    assert len(report["top5"]) == 5
    assert events == ["submit"] * 6 + ["gather"] * 6


def test_optimize_gec_loads_gold_m2_once_for_final_report(tmp_path, monkeypatch):
    import apio.cli as cli

    rng = random.Random(3)
    gold = tmp_path / "gold.m2"
    gold.write_text("\n".join(serialize_m2(random_record(rng)) for _ in range(12)), encoding="utf-8")
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=6)
    config = json.loads(paths["config"].read_text(encoding="utf-8"))
    config["task"] = "gec"
    config["data"].update(format="m2", path=str(gold))
    paths["config"].write_text(json.dumps(config), encoding="utf-8")
    paths["script"].write_text(json.dumps([
        {"match": INDUCE_MATCH, "response": "Fix the grammar.", "sticky": True},
        {"match": "Suggest new instruction", "response": "<new_instruction>Fix verbs.</new_instruction>"},
        {"match": "Suggest new instruction", "response": "<new_instruction>Fix nouns.</new_instruction>",
         "sticky": True},
        {"match": "Generate a variation", "mode": "echo_instruction", "sticky": True},
        {"match": "Corrected sentence:", "response": "the cat sat", "sticky": True},
    ]), encoding="utf-8")
    loads = []
    monkeypatch.setattr(cli, "load_m2", lambda path: loads.append(path) or load_m2(path))
    assert _induce(paths) == 0
    assert _optimize(paths) == 0
    report = json.loads((paths["runs"] / "r1" / "final_report.json").read_text(encoding="utf-8"))
    assert len(report["top5"]) > 1
    assert all(entry["task_metric"]["name"] == "f05-approx" for entry in report["top5"])
    assert loads == [str(gold)]


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


def test_unknown_key_or_non_object_config_exits_2(tmp_path, capsys):
    assert _run_with_config_value(tmp_path, "induce", "optimizer.beam", 4) == 2
    assert "error: optimizer.beam is not a configuration field" in capsys.readouterr().err
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


@pytest.mark.parametrize("command", ["induce", "optimize"])
@pytest.mark.parametrize(("field", "value"), [("dev_size", 0), ("train_size", 0), ("dev_size", -1)])
def test_split_size_below_one_exits_2_before_creating_run(tmp_path, capsys, command, field, value):
    assert _run_with_config_value(tmp_path, command, f"data.{field}", value) == 2
    assert f"data.{field} must be an integer >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "r1").exists()


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
        {"max_tokens": 0},
        {"base_url": "api.openai.com/v1"},
        {"base_url": "ftp://llm.test/v1"},
        {"base_url": "http:///v1"},
    ],
    ids=["retry_max", "timeout_s", "max_tokens", "no-scheme", "ftp", "no-host"],
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
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules", "sticky": True}]))
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
    script.write_text(json.dumps([{"match": "\nOutput:", "response": " one\ntwo\n\ndropped", "sticky": True}]))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
                 "--script", str(script)]) == 0
    assert out.read_text(encoding="utf-8") == "one two\n"


def test_script_alone_selects_the_scripted_backend(tmp_path, no_network):
    prompt, source, script, out = (tmp_path / name for name in ("p.txt", "in.txt", "s.json", "out.txt"))
    _write_prompt(prompt)
    source.write_text("a foo\n", encoding="utf-8")
    script.write_text(json.dumps([{"match": "\nOutput:", "response": "scripted", "sticky": True}]))
    assert main(["infer", "--prompt", str(prompt), "--input", str(source), "--output", str(out),
                 "--script", str(script)]) == 0
    assert out.read_text(encoding="utf-8") == "scripted\n"
    assert no_network["n"] == 0


def test_infer_parallel_workers_preserve_order(tmp_path):
    prompt = tmp_path / "p.txt"
    _write_prompt(prompt)
    source = tmp_path / "in.txt"
    lines = [f"item {i} foo" if i % 3 else "" for i in range(40)]
    source.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    script = tmp_path / "s.json"
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules", "sticky": True}]))
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
    assert report["metric"] == "sari"
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


def test_baseline_zero_shot_default_template_by_task(tmp_path, chat_server):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"backend": {"base_url": chat_server.url}}))
    source = tmp_path / "in.txt"
    source.write_text("She go home\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert main(["baseline", "--kind", "zero_shot", "--task", "gec", "--config", str(config),
                 "--input", str(source), "--output", str(out)]) == 0
    sent = chat_server.requests[0]["json"]["messages"][0]["content"]
    assert "grammatical errors" in sent  # packaged gec template
    assert sent.endswith("Sentence: She go home\nCorrected sentence:")
    meta = json.loads(Path(str(out) + ".meta.json").read_text())
    assert "grammatical errors" in meta["prompt_text"]


def test_baseline_few_shot_exemplars_recorded_and_rendered(tmp_path):
    paths = make_workspace(tmp_path)
    source = tmp_path / "in.txt"
    source.write_text("a foo here\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    script = tmp_path / "s.json"
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules", "sticky": True}]))
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
    script.write_text(json.dumps([{"match": "\nOutput:", "mode": "rewrite_rules", "sticky": True}]))
    sequential, parallel = tmp_path / "seq.txt", tmp_path / "par.txt"
    base = ["baseline", "--kind", "zero_shot", "--input", str(source),
            "--script", str(script)]
    assert main([*base, "--output", str(sequential), "--workers", "1"]) == 0
    assert main([*base, "--output", str(parallel), "--workers", "4"]) == 0
    assert parallel.read_bytes() == sequential.read_bytes() == source.read_bytes()


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


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
