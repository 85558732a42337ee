from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from apio.corpus import SamplePair
from apio.gateway import ScriptedBackend, ScriptEntry


# the engine tests' scoring pool: one thread, as with ``--workers 1``
SEQUENTIAL = ThreadPoolExecutor(max_workers=1, thread_name_prefix="apio-test")


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: acceptance-criteria tests")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call":
        label = getattr(item.function, "_criterion", None)
        if label:
            verdict = "PASS" if report.passed else "FAIL"
            print(f"[acceptance] {label}: {verdict} ({report.duration:.2f}s)")


@pytest.fixture
def toy_pairs() -> list[SamplePair]:
    rows = [
        ("the foo is big", "the bar is big"),
        ("a foo in a box", "a bar in a box"),
        ("foo here now", "bar here now"),
        ("one foo two foo", "one bar two bar"),
        ("my foo likes tea", "my bar likes tea"),
        ("this foo that foo", "this bar that bar"),
        ("foo goes home", "bar goes home"),
        ("every foo counts", "every bar counts"),
    ]
    return [
        SamplePair(id=f"toy-{i}", source=src, references=(ref,))
        for i, (src, ref) in enumerate(rows)
    ]


def rewrite_backend(extra: list[ScriptEntry] | None = None) -> ScriptedBackend:
    """Backend whose inference applies bullet rewrite rules literally."""
    entries = list(extra or [])
    entries.append(ScriptEntry(match="\nOutput:", mode="rewrite_rules", sticky=True))
    return ScriptedBackend(entries)
