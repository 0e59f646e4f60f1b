"""Shared pytest wiring: the acceptance scoreboard, a memory probe and
checks that no test leaves a child process or a thread behind.

Acceptance tests record one line per guarantee through the ``scoreboard``
fixture; the lines are printed in their own terminal section after the run,
outside pytest's output capture.  Memory tests measure with the
``peak_traced_bytes`` fixture, and tests that size thread or process pools
fake the usable cores with ``fake_cores``.
"""
import os
import threading
import tracemalloc

import pytest

_lines: list[str] = []


@pytest.fixture
def scoreboard():
    def record(name: str, ok: bool) -> None:
        _lines.append(f"[{'PASS' if ok else 'FAIL'}] {name}")

    return record


@pytest.fixture
def peak_traced_bytes():
    """``peak_traced_bytes(fn)`` calls fn and returns the peak of the bytes
    Python allocated meanwhile, as traced by tracemalloc."""

    def measure(fn) -> int:
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure


@pytest.fixture
def fake_cores(monkeypatch):
    """``fake_cores(k)`` makes the process see k usable cores: the thread
    pool of the verify stages and the worker count of run_seeds size
    themselves by it."""

    def use(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    return use


@pytest.fixture(autouse=True)
def no_child_process_left():
    """After each test, no child process may be running or unreaped: run_seeds
    reaps the workers it forks on every way out."""
    yield
    if hasattr(os, "waitpid") and hasattr(os, "WNOHANG"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_thread_left():
    """After each test, as many threads run as before it: the verify stages
    join every thread they start on every way out, and the run-stage checks
    start none."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, threading.enumerate()


def pytest_terminal_summary(terminalreporter):
    if _lines:
        terminalreporter.section("acceptance criteria")
        for line in _lines:
            terminalreporter.write_line(line)
