import os

import pytest
from hypothesis import settings

from hypersub.verify import per_step_margins

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


def scalar_key_margin(m, oracle, x, xbar, delta, lam):
    """The first ``per_step_margins`` form for the step exp_x(-lam g/|g|),
    on the library's scalar forms; the ball hypothesis is the caller's."""
    _, g = oracle.evaluate(m, x)
    z = m.exp(x, g.scaled(-lam / m.norm(g)))
    d_xbar, d_zxbar, d_zx = m.distance(x, xbar), m.distance(z, xbar), m.distance(x, z)
    return per_step_margins(m.kappa, d_xbar, d_zxbar, d_zx, delta)[0]
