import itertools
import re

import pytest
from hypothesis import given, strategies as st

from skewdyck.paths import (
    ORACLE_CAP,
    CapExceeded,
    enumerate_paths,
    parse_word,
    render_svg,
    udr_profile,
    validate,
)

def count_udr(word):
    """Number of contiguous UDR factors, by a scan that shares no code
    with the walk behind udr_profile and enumerate_paths.

    Occurrences cannot overlap: R is never followed by U in a valid word,
    so consecutive matches are at least three steps apart.
    """
    return sum(
        1
        for i in range(len(word) - 2)
        if word[i] == "U" and word[i + 1] == "D" and word[i + 2] == "R"
    )


def independent_check(word):
    """Validity via substring tests, sharing no code with validate()."""
    if "UR" in word or "RU" in word:
        return False
    level = 0
    for ch in word:
        level += 1 if ch == "U" else -1
        if level < 0:
            return False
    return True


class TestValidate:
    def test_empty_word_valid(self):
        assert validate("") is None

    def test_up_red_factor(self):
        violation = validate("UR")
        assert violation.rule == "UpRed"
        assert violation.index == 0

    def test_below_axis(self):
        violation = validate("D")
        assert violation.rule == "BelowAxis"
        assert violation.index == 0

    def test_valid_path(self):
        assert validate("UUDR") is None
        assert parse_word("UUDR") == "UUDR"

    def test_red_up_factor(self):
        violation = validate("UUDRU")
        assert violation.rule == "RedUp"
        assert violation.index == 3

    def test_axis_beats_factor_at_same_index(self):
        violation = validate("RU")
        assert violation.rule == "BelowAxis"

    def test_exhaustive_against_independent_rules(self):
        for m in range(9):
            for word in map("".join, itertools.product("UDR", repeat=m)):
                assert (validate(word) is None) == independent_check(word), word

    @given(st.text(alphabet="UDR", min_size=9, max_size=14))
    def test_random_words_against_independent_rules(self, word):
        assert (validate(word) is None) == independent_check(word)


class TestCountUdr:
    def test_too_short(self):
        assert count_udr("UD") == 0

    def test_single_occurrence(self):
        assert count_udr("UUDR") == 1

    def test_no_occurrence(self):
        assert count_udr("UUDD") == 0

    @given(st.text(alphabet="UDR", max_size=14))
    def test_reverse_scan_agrees(self, word):
        reversed_word = word[::-1]
        mirrored = sum(
            1
            for i in range(len(reversed_word) - 2)
            if reversed_word[i] == "R"
            and reversed_word[i + 1] == "D"
            and reversed_word[i + 2] == "U"
        )
        assert count_udr(word) == mirrored


class TestEnumerate:
    def test_length_zero(self):
        assert list(enumerate_paths(0)) == [("", 0, 0)]

    def test_length_four_total(self):
        assert len(list(enumerate_paths(4))) == 7

    def test_length_four_closed_avoiding(self):
        words = [word for word, level, udr in enumerate_paths(4) if level == 0 and not udr]
        assert words == ["UUDD", "UDUD"]

    def test_length_six_closed_avoiding(self):
        assert sum(1 for _, level, udr in enumerate_paths(6) if level == 0 and not udr) == 6

    def test_lexicographic_order(self):
        # step order U < D < R, not Python's string order
        keys = [["UDR".index(s) for s in word] for word, _, _ in enumerate_paths(5)]
        assert keys == sorted(keys)

    def test_unreachable_end_level_yields_nothing(self):
        # Three steps end at level 1 or 3, never at an even level or above 3.
        assert {level for _, level, _ in enumerate_paths(3)} == {1, 3}
        assert [level for _, level, _ in enumerate_paths(0)] == [0]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            next(enumerate_paths(25))
        with pytest.raises(CapExceeded):
            udr_profile(ORACLE_CAP + 1)

    def test_cardinality_matches_validity_filter(self):
        for m in range(9):
            brute = sum(
                1
                for word in map("".join, itertools.product("UDR", repeat=m))
                if validate(word) is None
            )
            assert len(list(enumerate_paths(m))) == brute

    def test_yields_satisfy_invariants(self):
        for word, level, udr in enumerate_paths(7):
            assert validate(word) is None
            assert level == 2 * word.count("U") - len(word)
            assert udr == count_udr(word)


class TestUdrProfile:
    def test_matches_word_cube(self):
        # validate and count_udr share no code with the walk behind
        # udr_profile and enumerate_paths.
        hist = udr_profile(8)
        for m in range(9):
            seen = {}
            for word in map("".join, itertools.product("UDR", repeat=m)):
                if validate(word) is None:
                    counter = seen.setdefault(2 * word.count("U") - m, {})
                    j = count_udr(word)
                    counter[j] = counter.get(j, 0) + 1
            assert hist[m] == seen


class TestSkewPath:
    """A path is its word: parse_word is the one gate from typed text to a
    valid word."""

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError, match="UpRed"):
            parse_word("UR")

    def test_parse_word_aliases_left(self):
        assert parse_word("UUDL") == "UUDR"
        assert parse_word(" uudl\n") == "UUDR"

    def test_parse_word_rejects_other_letters(self):
        with pytest.raises(ValueError, match=r"unknown step letter 'X' \(expected U, D, R\)"):
            parse_word("UDx")

    def test_levels(self):
        # At unit 1 the margin is 1 and the top level 2, so level k is
        # drawn at y = 3 - k; the dashed axis is no step segment.
        svg = render_svg("UUDR", 1)
        ys = re.findall(r'y1="(\d+)" x2="\d+" y2="(\d+)" stroke="#[0-9a-f]{6}" stroke-width="2"', svg)
        assert [(3 - int(a), 3 - int(b)) for a, b in ys] == [(0, 1), (1, 2), (2, 1), (1, 0)]

    @pytest.mark.parametrize(
        "word,violation",
        [("UX", (1, "UnknownStep")), ("UL", (1, "UnknownStep")), ("DX", (0, "BelowAxis"))],
    )
    def test_unknown_letter_is_a_violation(self, word, violation):
        # validate reads the word as given: L is read as R only by parse_word
        assert validate(word) == violation

    @given(st.text(alphabet="UDRLudrl ", max_size=14))
    def test_parse_word_is_the_gate(self, text):
        word = text.strip().upper().replace("L", "R")
        if set(word) <= set("UDR") and independent_check(word):
            assert parse_word(text) == word
            assert len(re.findall(r'stroke-width="2"', render_svg(word, 1))) == len(word)
        else:
            with pytest.raises(ValueError):
                parse_word(text)

    def test_invalid_word_message(self):
        with pytest.raises(ValueError, match="^invalid word: BelowAxis at index 2$"):
            parse_word("udd")


class TestRenderSvg:
    def test_empty_path(self):
        svg = render_svg("", 24)
        assert svg.startswith("<?xml")
        assert 'width="48"' in svg

    def test_two_segments_second_black(self):
        svg = render_svg("UD", 24)
        strokes = re.findall(r'stroke="([^"]+)"', svg)
        # axis + 2 segments
        assert len(strokes) == 3
        assert strokes[2] == "#000000"

    def test_red_stroke_on_fourth_segment(self):
        svg = render_svg("UUDR", 24)
        strokes = re.findall(r'stroke="([^"]+)"', svg)
        assert strokes[1:] == ["#000000"] * 3 + ["#cc0022"]

    def test_deterministic(self):
        assert render_svg("UUDR", 24) == render_svg("UUDR", 24)
