"""Skew path words: validity rules, brute-force enumeration, and an SVG
renderer.

A path is a word over three steps: Up (+1), DownBlack (-1) and DownRed
(-1, the encoded left step).  A word is valid when it never dips below
the axis and never contains the factors Up-DownRed or DownRed-Up.  The
contiguous factor Up-DownBlack-DownRed is the marked pattern: forbidden
in avoidance counts, tallied by the marker t otherwise.

The enumerator here is the ground-truth oracle for every other module:
it extends only valid prefixes and applies nothing but the local word
rules, so it shares no machinery with the automaton or the generating
functions it is used to check.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple, Optional, Sequence

ORACLE_CAP = 24


class CapExceeded(Exception):
    """Requested brute-force length beyond the configured oracle cap."""


class Step(enum.IntEnum):
    # Integer values fix the lexicographic enumeration order.
    UP = 0
    DOWN_BLACK = 1
    DOWN_RED = 2

    @property
    def displacement(self) -> int:
        return 1 if self is Step.UP else -1


_LETTER_TO_STEP = {
    "U": Step.UP,
    "D": Step.DOWN_BLACK,
    "R": Step.DOWN_RED,
    "L": Step.DOWN_RED,  # alias: the red step encodes the left step
}


def parse_word(text: str) -> tuple[Step, ...]:
    steps = []
    for ch in text.strip().upper():
        if ch not in _LETTER_TO_STEP:
            raise ValueError(f"unknown step letter {ch!r} (expected U, D, R)")
        steps.append(_LETTER_TO_STEP[ch])
    return tuple(steps)


class Rule(enum.Enum):
    BELOW_AXIS = "BelowAxis"
    UP_RED = "UpRed"
    RED_UP = "RedUp"


class Violation(NamedTuple):
    index: int
    rule: Rule


def validate(word: Sequence[Step]) -> Optional[Violation]:
    """Check the three validity rules: None for a valid word, else the
    earliest violation.

    At a tied index the axis rule is reported before the factor rules.
    The index of a factor violation is the position of its first step.
    """
    level = 0
    for i, step in enumerate(word):
        level += step.displacement
        if level < 0:
            return Violation(i, Rule.BELOW_AXIS)
        if i + 1 < len(word):
            nxt = word[i + 1]
            if step is Step.UP and nxt is Step.DOWN_RED:
                return Violation(i, Rule.UP_RED)
            if step is Step.DOWN_RED and nxt is Step.UP:
                return Violation(i, Rule.RED_UP)
    return None


class SkewPath:
    """A validated step word with its level profile."""

    def __init__(self, steps: tuple[Step, ...]):
        v = validate(steps)
        if v is not None:
            raise ValueError(f"invalid word: {v.rule.value} at index {v.index}")
        self.steps = steps
        levels = [0]
        for s in steps:
            levels.append(levels[-1] + s.displacement)
        self.levels = tuple(levels)

    def __len__(self) -> int:
        return len(self.steps)


def _check_length(length: int) -> None:
    if length > ORACLE_CAP:
        raise CapExceeded(f"length {length} exceeds oracle cap {ORACLE_CAP}")
    if length < 0:
        raise ValueError("length must be nonnegative")


def _valid_words(max_length: int) -> Iterator[tuple[tuple[Step, ...], int, int]]:
    """Yield (word, end level, pattern count) for every valid word of at
    most max_length steps, each word before its extensions and words of
    one length in lexicographic step order (Up < DownBlack < DownRed).

    Only valid prefixes are extended, so the search covers the prefix
    tree of valid words, not the full 3^length cube; every prefix of a
    valid word is itself valid.
    """
    up, black, red = Step
    stack = [((), 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        yield item
        word, level, udr = item
        if len(word) == max_length:
            continue
        last = word[-1] if word else None
        # Pushed in reverse so that Up is popped first.
        if level:
            if last is not up:
                # DownRed after Up, DownBlack completes the pattern.
                push((word + (red,), level - 1, udr + (word[-2:] == (up, black))))
            push((word + (black,), level - 1, udr))
        if last is not red:
            push((word + (up,), level + 1, udr))


def enumerate_paths(length: int) -> Iterator[tuple[tuple[Step, ...], int, int]]:
    """Yield (word, end level, pattern count) for every valid word of
    exactly `length` steps, in lexicographic step order (Up < DownBlack
    < DownRed)."""
    _check_length(length)
    for item in _valid_words(length):
        if len(item[0]) == length:
            yield item


def udr_profile(max_length: int):
    """Brute-force pattern histograms for every length up to max_length.

    Returns hist with hist[m][level][j] = number of valid words of
    length m ending at `level` with exactly j pattern occurrences, all
    lengths tallied from one walk over the prefix tree of valid words.
    """
    _check_length(max_length)
    hist: list[dict[int, dict[int, int]]] = [dict() for _ in range(max_length + 1)]
    for word, level, udr in _valid_words(max_length):
        counter = hist[len(word)].setdefault(level, {})
        counter[udr] = counter.get(udr, 0) + 1
    return hist


_RED = "#cc0022"
_BLACK = "#000000"


def render_svg(path: SkewPath, unit_px: int) -> str:
    """Standalone SVG 1.1 drawing, one segment per step.

    Up is drawn as (+1,+1); both down steps as (+1,-1), the red one in
    the red stroke.  Output is byte-stable for fixed inputs.
    """
    margin = unit_px
    top = max(path.levels) if path.levels else 0
    width = len(path) * unit_px + 2 * margin
    height = top * unit_px + 2 * margin

    def x(i):
        return margin + i * unit_px

    def y(level):
        return margin + (top - level) * unit_px

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(len(path))}" y2="{y(0)}" '
        f'stroke="#bbbbbb" stroke-dasharray="4 4" stroke-width="1"/>',
    ]
    for i, step in enumerate(path.steps):
        lines.append(
            f'<line x1="{x(i)}" y1="{y(path.levels[i])}" '
            f'x2="{x(i + 1)}" y2="{y(path.levels[i + 1])}" '
            f'stroke="{_RED if step is Step.DOWN_RED else _BLACK}" stroke-width="2" '
            f'stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
