from __future__ import annotations

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Let a grid of any size fork its row workers: the fork grain drops to
    one unit of work and the process may run on two CPUs. Yields the pid
    of every child that ``verify_grid`` forks, so a test can show that its
    grid did not run serially."""
    import lahverify.verify as verify_mod

    if not hasattr(os, "fork"):
        pytest.skip("needs forked workers")
    monkeypatch.setattr(verify_mod, "_FORK_GRAIN", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    fork = os.fork
    pids = []

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids

