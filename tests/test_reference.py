"""Differential tests: the integer engine against slow references.

The reference below is the generic engine the package used to run:
schoolbook products, an O(N^2) inverse, inverse-then-multiply division
and Newton iteration with the derivative at full precision, all over
exact rationals.  Q[t] elements are tuples of Fractions.  It shares only
the equations' coefficient data with the package, not any arithmetic,
so every coefficient the fast path produces is checked against an
independent computation.  A second solver, by undetermined coefficients,
checks the Newton solver inside the integer engine.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from skewdyck import holonomic
from skewdyck.cubics import avoidance_cubic, avoidance_series, marker_cubic, marker_series
from skewdyck.kernel import GFMode, boundary_constants, kernel_equation, kernel_root
from skewdyck.rings import QQ, TPoly
from skewdyck.series import DivisionByNonUnit, ZSeries, divide, solve_algebraic


class RefQ:
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def lift(c):
        return Fraction(c)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def inv(a):
        return 1 / a


class RefQT:
    """Polynomials in t as tuples of Fractions, trailing zeros stripped."""

    zero = ()
    one = (Fraction(1),)

    @staticmethod
    def _strip(cs):
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    @classmethod
    def lift(cls, c):
        cs = c.coeffs if isinstance(c, TPoly) else (c,)
        return cls._strip(Fraction(x) for x in cs)

    @classmethod
    def add(cls, a, b):
        n = max(len(a), len(b))
        return cls._strip(
            (a[j] if j < len(a) else 0) + (b[j] if j < len(b) else 0) for j in range(n)
        )

    @classmethod
    def mul(cls, a, b):
        if not a or not b:
            return ()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return cls._strip(out)

    @staticmethod
    def inv(a):
        assert len(a) == 1, "only constant polynomials are invertible"
        return (1 / a[0],)


def ref_neg(R, a):
    return [R.mul(R.lift(-1), c) for c in a]


def ref_add(R, a, b):
    return [R.add(x, y) for x, y in zip(a, b)]


def ref_mul(R, a, b):
    n = min(len(a), len(b))
    out = [R.zero] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = R.add(out[i + j], R.mul(a[i], b[j]))
    return out


def ref_inverse(R, a):
    inv0 = R.inv(a[0])
    out = [inv0]
    for n in range(1, len(a)):
        acc = R.zero
        for k in range(1, n + 1):
            acc = R.add(acc, R.mul(a[k], out[n - k]))
        out.append(R.mul(R.lift(-1), R.mul(inv0, acc)))
    return out


def ref_divide(R, a, b):
    """a times the inverse of b, whose constant term must be invertible."""
    n = min(len(a), len(b))
    return ref_mul(R, a[:n], ref_inverse(R, b[:n]))


def ref_poly(R, coeffs, n):
    cs = [R.lift(c) for c in coeffs[:n]]
    return cs + [R.zero] * (n - len(cs))


def ref_apply(R, eq, s):
    polys = eq.coeff_polys
    acc = ref_poly(R, polys[-1], len(s))
    for p in reversed(polys[:-1]):
        acc = ref_add(R, ref_mul(R, acc, s), ref_poly(R, p, len(s)))
    return acc


def ref_newton(R, eq, s0, order):
    """Newton with doubling, the derivative formed at full precision."""
    deq = eq.derivative()
    s = [R.lift(s0)]
    while len(s) < order:
        s = s + [R.zero] * (min(2 * len(s), order) - len(s))
        correction = ref_mul(R, ref_apply(R, eq, s), ref_inverse(R, ref_apply(R, deq, s)))
        s = ref_add(R, s, ref_neg(R, correction))
    return s


def lifted(R, series):
    return [R.lift(c) for c in series.coeffs]


def ref_boundary_constants(R, mode, order):
    """The level-0 constants g0, h0, k0, by the formulas of kernel.boundary_constants."""
    work = order + 4
    ut = ref_newton(R, kernel_equation(mode), 1, work)
    z2 = ref_poly(R, [0, 0, 1], work)
    one = ref_poly(R, [1], work)
    num = ref_add(R, one, ref_neg(R, ref_add(R, z2, ut)))
    if mode is GFMode.UNIVARIATE:
        k_num = ref_mul(R, num, z2)
        k_den = ref_mul(R, ut, ref_add(R, ut, ref_neg(R, z2)))
    else:
        t = ref_poly(R, [TPoly((0, 1))], work)
        tz2 = ref_mul(R, t, z2)
        k_num = ref_mul(R, num, ref_add(R, ref_mul(R, t, ut), ref_add(R, z2, ref_neg(R, tz2))))
        k_den = ref_mul(R, ut, ref_add(R, ut, ref_add(R, tz2, ref_neg(R, z2))))
    return {
        "g0": ref_divide(R, z2, ut)[:order],
        "h0": ref_divide(R, num, ut)[:order],
        "k0": ref_divide(R, k_num, k_den)[:order],
    }


def solve_undetermined(eq, s0, order):
    """Order-by-order coefficient extraction; independent of Newton.

    The z^n coefficient of P(s) is linear in s_n with slope dP/dS(0, s0),
    which is +1 or -1 and so its own inverse.  O(N) residual evaluations,
    so only suitable for moderate orders; the solvers must agree
    coefficient-for-coefficient.
    """
    ring = eq.ring
    at_origin = ZSeries([s0], 1, ring)
    d0 = eq.derivative().apply(at_origin).coeffs[0]
    assert eq.apply(at_origin).valuation() is None and d0 in (ring.one, -ring.one)
    coeffs = [ring.coerce(s0)]
    for n in range(1, order):
        probe = ZSeries(tuple(coeffs) + (ring.zero,), n + 1, ring)
        r = eq.apply(probe).coeffs[n]
        coeffs.append(-(d0 * r))
    return ZSeries(tuple(coeffs), order, ring)


RING = {GFMode.UNIVARIATE: RefQ, GFMode.BIVARIATE: RefQT}


class TestAgainstFractionReference:
    def test_avoidance_series(self):
        got = avoidance_series(300)
        assert lifted(RefQ, got) == ref_newton(RefQ, avoidance_cubic(), 1, 300)

    def test_marker_series(self):
        got = marker_series(30)
        assert lifted(RefQT, got) == ref_newton(RefQT, marker_cubic(), 1, 30)

    @pytest.mark.parametrize("mode", list(GFMode))
    def test_kernel_root(self, mode):
        R = RING[mode]
        got = kernel_root(120, mode)
        assert lifted(R, got) == ref_newton(R, kernel_equation(mode), 1, 120)

    @pytest.mark.parametrize("mode", list(GFMode))
    def test_boundary_constants(self, mode):
        R = RING[mode]
        got = boundary_constants(40, mode)
        want = ref_boundary_constants(R, mode, 40)
        for name in ("g0", "h0", "k0"):
            assert lifted(R, got[name]) == want[name], name

    @pytest.mark.parametrize("mode", list(GFMode))
    def test_inverse_and_product(self, mode):
        R = RING[mode]
        s = kernel_root(40, mode)
        ref = lifted(R, s)
        assert lifted(R, s.inverse()) == ref_inverse(R, ref)
        assert lifted(R, s * s) == ref_mul(R, ref, ref)

    @pytest.mark.parametrize(
        "equation,R",
        [
            (avoidance_cubic, RefQ),
            (marker_cubic, RefQT),
            (lambda: kernel_equation(GFMode.UNIVARIATE), RefQ),
            (lambda: kernel_equation(GFMode.BIVARIATE), RefQT),
        ],
        ids=["avoidance", "marker", "kernel-univariate", "kernel-bivariate"],
    )
    def test_newton_never_inverts(self, monkeypatch, equation, R):
        def refuse(self):
            raise AssertionError("ZSeries.inverse called")

        monkeypatch.setattr(ZSeries, "inverse", refuse)
        eq = equation()
        assert lifted(R, solve_algebraic(eq, 1, 30)) == ref_newton(R, eq, 1, 30)

    def test_avoidance_series_matches_recurrence_to_600(self):
        assert avoidance_series(600).integer_coefficients() == holonomic.extend([1, 1, 2, 6], 599)


class TestUndeterminedCoefficients:
    def test_schedules_agree(self):
        eq = avoidance_cubic()
        doubling = solve_algebraic(eq, 1, 33, schedule="doubling")
        linear = solve_algebraic(eq, 1, 33, schedule="linear")
        undetermined = solve_undetermined(eq, 1, 33)
        assert doubling.coeffs == linear.coeffs == undetermined.coeffs

    def test_schedules_agree_marker_ring(self):
        eq = marker_cubic()
        doubling = solve_algebraic(eq, 1, 12, schedule="doubling")
        undetermined = solve_undetermined(eq, 1, 12)
        assert doubling.coeffs == undetermined.coeffs


int_lists = st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=9)


class TestDivideAgainstFractions:
    @given(int_lists, int_lists, st.integers(min_value=0, max_value=2))
    @example(a=[1, 2, 3, 4], b=[-1, 1, 1], v=0)  # unit divisor -1
    @example(a=[3, 6, 0, 9], b=[3, -3], v=0)  # integral quotient, but 3 is not a unit
    @example(a=[1, 2], b=[1, 1], v=1)  # a z power in front: b[0] = 0 is not a unit
    @example(a=[1, 1], b=[2, 1], v=0)  # inexact
    @settings(max_examples=200)
    def test_integral_quotient_agrees_else_raises(self, a, b, v):
        b = [0] * v + b
        a = [0] * v + a
        n = min(len(a), len(b))
        za, zb = ZSeries(a, n, QQ), ZSeries(b, n, QQ)
        if b[0] not in (1, -1):
            with pytest.raises(DivisionByNonUnit):
                divide(za, zb)
            return
        want = ref_divide(RefQ, [Fraction(x) for x in a[:n]], [Fraction(x) for x in b[:n]])
        got = divide(za, zb)
        assert got.coeffs == tuple(want)
        assert all(type(c) is int for c in got.coeffs)
