"""Fixtures shared by the test modules."""

from __future__ import annotations

import os
from pathlib import Path

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fails a test that leaves a child process running or unreaped, such
    as a worker of _util.process_map."""
    yield
    if not hasattr(os, "WNOHANG"):  # no waitpid(-1) on this platform
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "still running" if pid == 0 else f"pid {pid} exited but was never reaped"
    pytest.fail(f"the test left a child process behind: {state}")


@pytest.fixture
def text_file(tmp_path):
    """text_file(text, name="vehicle.csv"): the path of a new file under
    tmp_path that holds text. Every reader takes a path, not a stream."""

    def write(text: str, name: str = "vehicle.csv") -> Path:
        path = tmp_path / name
        path.write_text(text)
        return path

    return write
