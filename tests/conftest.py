"""Shared pytest hooks and fixtures."""

import sys

import pytest

from unrollpr import training


@pytest.fixture
def worker_pool(monkeypatch):
    """Two usable CPUs whatever the host has, and no worker left afterwards.

    Workers are forked with the parent's code as it is at that moment, so a
    pool started under a test's monkeypatches must not serve the next test.
    """
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    training._close_pool()
    yield
    training._close_pool()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)
