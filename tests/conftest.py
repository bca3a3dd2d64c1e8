"""Fixtures shared by every test module."""

import pytest

from skewdyck import series


@pytest.fixture(autouse=True)
def cold_roots():
    """Start and end every test with no kept root (series.solve_once), so
    that no test is served a root another test solved, whatever the
    order the tests run in."""
    series._ROOTS.clear()
    yield
    series._ROOTS.clear()
