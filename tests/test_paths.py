import itertools
import re

import pytest
from hypothesis import given, strategies as st

from skewdyck.paths import (
    ORACLE_CAP,
    CapExceeded,
    Rule,
    SkewPath,
    Step,
    count_udr,
    enumerate_paths,
    parse_word,
    render_svg,
    udr_profile,
    validate,
)

U, D, R = Step.UP, Step.DOWN_BLACK, Step.DOWN_RED


def independent_check(word):
    """Validity via string rules, sharing no code with validate()."""
    text = "".join(s.letter for s in word)
    if "UR" in text or "RU" in text:
        return False
    level = 0
    for ch in text:
        level += 1 if ch == "U" else -1
        if level < 0:
            return False
    return True


class TestValidate:
    def test_empty_word_valid(self):
        assert validate([]).valid

    def test_up_red_factor(self):
        report = validate([U, R])
        assert not report.valid
        assert report.violation.rule is Rule.UP_RED
        assert report.violation.index == 0

    def test_below_axis(self):
        report = validate([D])
        assert not report.valid
        assert report.violation.rule is Rule.BELOW_AXIS
        assert report.violation.index == 0

    def test_valid_path(self):
        report = validate([U, U, D, R])
        assert report.valid
        path = SkewPath((U, U, D, R))
        assert path.end_level == 0

    def test_red_up_factor(self):
        report = validate([U, U, D, R, U])
        assert not report.valid
        assert report.violation.rule is Rule.RED_UP
        assert report.violation.index == 3

    def test_axis_beats_factor_at_same_index(self):
        report = validate([R, U])
        assert report.violation.rule is Rule.BELOW_AXIS

    def test_exhaustive_against_independent_rules(self):
        for m in range(9):
            for word in itertools.product((U, D, R), repeat=m):
                assert validate(word).valid == independent_check(word), word

    @given(st.lists(st.sampled_from([U, D, R]), min_size=9, max_size=14))
    def test_random_words_against_independent_rules(self, word):
        assert validate(word).valid == independent_check(word)


class TestCountUdr:
    def test_too_short(self):
        assert count_udr([U, D]) == 0

    def test_single_occurrence(self):
        assert count_udr([U, U, D, R]) == 1

    def test_no_occurrence(self):
        assert count_udr([U, U, D, D]) == 0

    @given(st.lists(st.sampled_from([U, D, R]), max_size=14))
    def test_reverse_scan_agrees(self, word):
        reversed_word = word[::-1]
        mirrored = sum(
            1
            for i in range(len(reversed_word) - 2)
            if reversed_word[i] is R
            and reversed_word[i + 1] is D
            and reversed_word[i + 2] is U
        )
        assert count_udr(word) == mirrored


class TestEnumerate:
    def test_length_zero(self):
        paths = list(enumerate_paths(0))
        assert len(paths) == 1
        assert len(paths[0]) == 0

    def test_length_four_total(self):
        assert len(list(enumerate_paths(4))) == 7

    def test_length_four_closed_avoiding(self):
        words = [p.word() for p in enumerate_paths(4, end_level=0, forbid_udr=True)]
        assert words == ["UUDD", "UDUD"]

    def test_length_six_closed_avoiding(self):
        assert len(list(enumerate_paths(6, end_level=0, forbid_udr=True))) == 6

    def test_lexicographic_order(self):
        paths = list(enumerate_paths(5))
        keys = [tuple(int(s) for s in p.steps) for p in paths]
        assert keys == sorted(keys)

    def test_unreachable_end_level_yields_nothing(self):
        assert list(enumerate_paths(3, end_level=10)) == []
        assert list(enumerate_paths(0, end_level=2)) == []

    def test_cap(self):
        with pytest.raises(CapExceeded):
            next(enumerate_paths(25))
        with pytest.raises(CapExceeded):
            udr_profile(ORACLE_CAP + 1)

    def test_cardinality_matches_validity_filter(self):
        for m in range(9):
            brute = sum(
                1
                for word in itertools.product((U, D, R), repeat=m)
                if validate(word).valid
            )
            assert len(list(enumerate_paths(m))) == brute

    def test_yields_satisfy_invariants(self):
        for p in enumerate_paths(7):
            assert min(p.levels) >= 0
            assert validate(p.steps).valid
            assert p.udr_count == count_udr(p.steps)


class TestUdrProfile:
    def test_matches_word_cube(self):
        # validate and count_udr share no code with the walk behind
        # udr_profile and enumerate_paths.
        hist = udr_profile(8)
        for m in range(9):
            seen = {}
            for word in itertools.product((U, D, R), repeat=m):
                if validate(word).valid:
                    counter = seen.setdefault(sum(s.displacement for s in word), {})
                    j = count_udr(word)
                    counter[j] = counter.get(j, 0) + 1
            assert hist[m] == seen


class TestSkewPath:
    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError, match="UpRed"):
            SkewPath((U, R))

    def test_parse_word_aliases_left(self):
        assert parse_word("UUDL") == (U, U, D, R)

    def test_levels(self):
        assert SkewPath((U, U, D, R)).levels == (0, 1, 2, 1, 0)


class TestRenderSvg:
    def test_empty_path(self):
        svg = render_svg(SkewPath(()))
        assert svg.startswith("<?xml")
        assert 'width="48"' in svg

    def test_two_segments_second_black(self):
        svg = render_svg(SkewPath((U, D)))
        strokes = re.findall(r'stroke="([^"]+)"', svg)
        # axis + 2 segments
        assert len(strokes) == 3
        assert strokes[2] == "#000000"

    def test_red_stroke_on_fourth_segment(self):
        svg = render_svg(SkewPath((U, U, D, R)))
        strokes = re.findall(r'stroke="([^"]+)"', svg)
        assert strokes[1:] == ["#000000"] * 3 + ["#cc0022"]

    def test_deterministic(self):
        p = SkewPath((U, U, D, R))
        assert render_svg(p) == render_svg(p)
