"""TPoly arithmetic against a plain-list reference, and exact division in
the coefficient rings."""

import pytest
from hypothesis import example, given, settings, strategies as st

from skewdyck.rings import QQ, QT, TPoly

# Coefficient lists with trailing zeros and the empty list included.
coeff_lists = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 7, 10**20]), max_size=6)
scalars = st.sampled_from([0, 1, -1, 3, -(10**20)])


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _strip(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def _check(result, want):
    assert isinstance(result, TPoly)
    assert result.coeffs == want
    assert not result.coeffs or result.coeffs[-1] != 0  # stripped
    assert all(type(c) is int for c in result.coeffs)


class TestTPolyAgainstLists:
    @given(coeff_lists, coeff_lists)
    @example([], [])
    @example([1, 2], [-1, -2])  # everything cancels
    @example([0, 0, 5], [])
    @settings(max_examples=300)
    def test_polynomial_operands(self, a, b):
        p, q = TPoly(a), TPoly(b)
        _check(p + q, _ref_add(a, b))
        _check(p - q, _ref_add(a, [-c for c in b]))
        _check(p * q, _ref_mul(a, b))
        _check(-p, _strip(-c for c in a))

    @given(coeff_lists, scalars)
    @settings(max_examples=200)
    def test_int_operands(self, a, n):
        p = TPoly(a)
        _check(p + n, _ref_add(a, [n]))
        _check(n + p, _ref_add(a, [n]))
        _check(p - n, _ref_add(a, [-n]))
        _check(n - p, _ref_add([-c for c in a], [n]))
        _check(p * n, _ref_mul(a, [n]))
        _check(n * p, _ref_mul(a, [n]))

    def test_zero_operand_returns_an_operand(self):
        p, zero = TPoly([1, 2, 3]), TPoly([0, 0])
        assert p + zero is p and zero + p is p
        assert p + 0 is p and 0 + p is p
        assert p * zero is zero and zero * p is zero
        assert sum([p], TPoly()) is p


class TestExactDivision:
    def test_integer_ring(self):
        assert QQ.divexact(12, -4) == -3
        assert QQ.divexact(12, 5) is None

    def test_marker_ring_by_int(self):
        got = QT.divexact(TPoly([6, 0, -4]), 2)
        assert got == TPoly([3, 0, -2])
        assert all(type(c) is int for c in got.coeffs)
        assert QT.divexact(TPoly(), 7) == TPoly()
        assert QT.divexact(TPoly([6, 3]), 2) is None  # one inexact coefficient is enough
        with pytest.raises(ZeroDivisionError):
            QT.divexact(TPoly([6]), 0)
