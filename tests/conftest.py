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


@pytest.fixture
def row_caches():
    """Every row and column cache of the routes, empty before and after the
    test, so that a test sees each route build what it reads, and a row
    built under an injected fault never reaches another test."""
    import lahverify.verify as verify_mod
    from lahverify.numbers import lah_row

    caches = (lah_row, verify_mod._route1_row, verify_mod._route2_column, verify_mod._route3_factor,
              verify_mod._route4_column, verify_mod._route6_row)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
