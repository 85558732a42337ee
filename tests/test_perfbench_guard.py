"""The traced benchmark wraps apio's entry points by name from outside the
package and reads their results, so a rename there, or a change to what a
wrapped function returns, must fail this suite, not only a traced run."""

from __future__ import annotations

import json
import time
from pathlib import Path

from apio.cli import main
from apio.gateway import ScriptedBackend
from toytask import make_workspace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_wrapped_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_layer_metrics_of_a_traced_scripted_run(tmp_path, monkeypatch):
    """The wrappers read the wrapped calls' results (``len`` of improve's
    children, the reports of ``best_of_trials``), so a change to what a
    wrapped function returns must fail here too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    backends = []
    from_file = ScriptedBackend.from_file.__func__

    def recording_from_file(cls, path):
        backends.append(from_file(cls, path))
        return backends[-1]

    monkeypatch.setattr(ScriptedBackend, "from_file", classmethod(recording_from_file))
    paths = make_workspace(tmp_path, n_epochs=2, beam_b=4)
    argv = ["--config", str(paths["config"]), "--script", str(paths["script"]),
            "--runs-dir", str(paths["runs"]), "--run-id", "r", "--workers", "2"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        assert main(["induce", *argv]) == 0
        assert main(["optimize", *argv]) == 0
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    stub_stats = {"requests": 0, "service_s": 0.0, "injected_s": 0.0}
    metrics = tracing.layer_metrics(tracer.spans, 1, wall_s, stub_stats, wall_s)

    run = paths["runs"] / "r"
    trials = json.loads((run / "trials.json").read_text(encoding="utf-8"))["trials"]
    epochs = json.loads((run / "history.json").read_text(encoding="utf-8"))["epochs"]
    assert metrics["gateway.calls"] == sum(b.calls.total() for b in backends) > 0
    assert metrics["gateway.calls.induce"] == 4  # two trials of two instructions
    assert min(metrics[f"gateway.calls.{p}"] for p in ("improve", "rephrase", "infer")) > 0
    assert metrics["induction.trials"] == len(trials) == 2
    assert metrics["induction.failed_trials"] == 0
    assert metrics["optimizer.scored"] == sum(len(e["candidates"]) for e in epochs) > 0
    assert metrics["optimizer.proposed"] >= metrics["optimizer.scored"]
    assert metrics["optimizer.admitted"] > 0
    assert metrics["state.writes"] > 0
