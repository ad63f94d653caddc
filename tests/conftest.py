"""Fixtures shared by the test modules."""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture
def text_file(tmp_path):
    """text_file(text, name="vehicle.csv"): the path of a new file under
    tmp_path that holds text. Every reader takes a path, not a stream."""

    def write(text: str, name: str = "vehicle.csv") -> Path:
        path = tmp_path / name
        path.write_text(text)
        return path

    return write
