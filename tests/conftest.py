import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Let the search fork its child whatever the host's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
