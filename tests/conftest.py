"""Fixtures shared by every test module, and the environment of the fresh
interpreters that some of them start."""

import os
from pathlib import Path

import pytest

from skewdyck import series

# A fresh interpreter imports skewdyck from this checkout's src.
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


@pytest.fixture(autouse=True)
def cold_roots():
    """Start and end every test with no kept root (series.solve_once), so
    that no test is served a root another test solved, whatever the
    order the tests run in."""
    series._ROOTS.clear()
    yield
    series._ROOTS.clear()
