"""Fixtures shared by the test modules."""

import multiprocessing

import pytest

from ecopool import ppo


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Fails a test after which a child process of this one (a critic
    helper or a `--jobs` worker) is still running; the child is killed,
    so the next test starts clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    assert left == [], f"child processes outlived the test: {left}"


@pytest.fixture
def helpers(monkeypatch):
    """Each critic helper forked from now on, in fork order; its `jobs`
    counts the critic jobs sent to it."""
    if ppo._usable_cpus() < 2:
        pytest.skip("no critic helper: it needs fork and 2 usable CPUs")
    made = []

    class Recorded(ppo._Helper):
        def __init__(self, *args):
            super().__init__(*args)
            self.jobs = 0
            made.append(self)

        def send(self, job):
            placed = super().send(job)
            self.jobs += placed is not None
            return placed

    monkeypatch.setattr(ppo, "_Helper", Recorded)
    return made
