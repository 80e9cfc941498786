"""Fork counting under a chosen number of usable CPUs."""

import os

_FORK = os.fork


def with_cpus(monkeypatch, cpus):
    """Let the fork splits see `cpus` usable CPUs; returns a list that counts
    the forks made in this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or _FORK())
    return forks
