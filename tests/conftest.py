import os

import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=100)
settings.load_profile("ci")


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made while the test runs, one None each."""
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


def forks_per_split():
    """1 where the process may run on 2 CPUs, else 0: under ``taskset -c 0``
    every split write, load and fuzz takes the serial path."""
    return int(len(os.sched_getaffinity(0)) >= 2)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
