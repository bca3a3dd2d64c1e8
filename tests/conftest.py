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


def valid_words(max_length):
    """Yield (word, end level, pattern count) for every valid word of at
    most max_length steps, each word before its extensions and words of
    one length in step order U < D < R (not Python's string order).

    The plain walk over the prefix tree of valid words, without the
    in-place counting of `paths.udr_profile`, which it checks.
    """
    stack = [("", 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        yield item
        word, level, udr = item
        if len(word) == max_length:
            continue
        last = word[-1:]
        # Pushed in reverse so that U is popped first.
        if level:
            if last != "U":
                # R after U, D completes the pattern.
                push((word + "R", level - 1, udr + word.endswith("UD")))
            push((word + "D", level - 1, udr))
        if last != "R":
            push((word + "U", level + 1, udr))


def enumerate_paths(length):
    """Yield (word, end level, pattern count) for every valid word of
    exactly `length` steps, in step order U < D < R."""
    return (item for item in valid_words(length) if len(item[0]) == length)
