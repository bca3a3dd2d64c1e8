"""Skew path words: validity rules, the brute-force oracle, and an SVG
renderer.

A path is its word, a plain str over three letters: U (up, +1), D
(down-black, -1) and R (down-red, -1, the encoded left step).  A word is
valid when it never dips below the axis and never contains the factors
UR or RU.  The contiguous factor UDR is the marked pattern: forbidden in
avoidance counts, tallied by the marker t otherwise.  `parse_word` is
the one gate from typed text to a valid word (it also reads L as R), and
`render_svg` draws a valid word.

The walk in `udr_profile` is the ground-truth oracle for every other
module: it extends only valid prefixes and applies nothing but the local
word rules, so it shares no machinery with the automaton or the
generating functions it is used to check.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from . import ORACLE_CAP


class CapExceeded(Exception):
    """Requested brute-force length beyond the configured oracle cap."""


def parse_word(text: str) -> str:
    """The valid word a user typed, upper-cased, with L read as R; a
    ValueError for an unknown letter or a word that breaks a rule."""
    word = text.strip().upper()
    for ch in word:
        if ch not in "UDRL":
            raise ValueError(f"unknown step letter {ch!r} (expected U, D, R)")
    word = word.replace("L", "R")
    v = validate(word)
    if v is not None:
        raise ValueError(f"invalid word: {v.rule} at index {v.index}")
    return word


# The forbidden factors, each with the rule name a violation reports.
_FACTOR_RULES = {"UR": "UpRed", "RU": "RedUp"}

# rule is "UnknownStep", "BelowAxis", "UpRed" or "RedUp".
Violation = namedtuple("Violation", "index rule")


def validate(word: str) -> Violation | None:
    """Check the three validity rules: None for a valid word, else the
    earliest violation.

    A letter other than U, D or R is an "UnknownStep" violation, reported
    before any other rule at its index.  At a tied index the axis rule is
    reported before the factor rules.  The index of a factor violation is
    the position of its first step.
    """
    level = 0
    for i, step in enumerate(word):
        if step not in "UDR":
            return Violation(i, "UnknownStep")
        level += 1 if step == "U" else -1
        if level < 0:
            return Violation(i, "BelowAxis")
        rule = _FACTOR_RULES.get(word[i : i + 2])
        if rule:
            return Violation(i, rule)
    return None


def udr_profile(max_length: int):
    """Brute-force pattern histograms for every length up to max_length.

    Returns hist with hist[m][level][j] = number of valid words of
    length m ending at `level` with exactly j pattern occurrences, all
    lengths tallied from one walk over the prefix tree of valid words.
    Only nonzero counts appear.

    The walk tallies into flat lists, counts[m][level][j]: a word of
    length m ends at a level <= m and holds at most m // 3 disjoint
    patterns, so every index is in range.  The walk counts each word's
    last step in place: a word one step short of max_length tallies its
    valid one-step extensions, by the same three rules, without building
    them.
    """
    if max_length > ORACLE_CAP:
        raise CapExceeded(f"length {max_length} exceeds oracle cap {ORACLE_CAP}")
    if max_length < 0:
        raise ValueError("length must be nonnegative")
    counts = [[[0] * (m // 3 + 1) for _ in range(m + 1)] for m in range(max_length + 1)]
    leaves, inner = counts[-1], max_length - 1
    stack = [("", 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        word, level, udr = pop()
        m = len(word)
        counts[m][level][udr] += 1
        last = word[-1:]
        if m < inner:
            if level:
                if last != "U":
                    push((word + "R", level - 1, udr + word.endswith("UD")))
                push((word + "D", level - 1, udr))
            if last != "R":
                push((word + "U", level + 1, udr))
        elif m == inner:
            if level:
                below = leaves[level - 1]
                if last != "U":
                    below[udr + word.endswith("UD")] += 1
                below[udr] += 1
            if last != "R":
                leaves[level + 1][udr] += 1
    return [
        {level: {j: c for j, c in enumerate(row) if c} for level, row in enumerate(rows) if any(row)}
        for rows in counts
    ]


_RED = "#cc0022"
_BLACK = "#000000"


def render_svg(word: str, unit_px: int) -> str:
    """Standalone SVG 1.1 drawing of a valid word, one segment per step.

    U is drawn as (+1,+1); D and R as (+1,-1), R in the red stroke.  Output is byte-stable for fixed inputs.
    """
    levels = [0, *accumulate(1 if step == "U" else -1 for step in word)]
    margin = unit_px
    top = max(levels)
    width = len(word) * unit_px + 2 * margin
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
        f'<line x1="{x(0)}" y1="{y(0)}" x2="{x(len(word))}" y2="{y(0)}" '
        f'stroke="#bbbbbb" stroke-dasharray="4 4" stroke-width="1"/>',
    ]
    for i, step in enumerate(word):
        lines.append(
            f'<line x1="{x(i)}" y1="{y(levels[i])}" '
            f'x2="{x(i + 1)}" y2="{y(levels[i + 1])}" '
            f'stroke="{_RED if step == "R" else _BLACK}" stroke-width="2" '
            f'stroke-linecap="round"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
