from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skewdyck.cubics import (
    avoidance_cubic,
    avoidance_series,
    marker_cubic,
    marker_series,
)
from skewdyck.rings import QQ, QT, TPoly
from skewdyck.series import (
    AlgEquation,
    DivisionByNonUnit,
    NotARoot,
    RingMismatch,
    SeriesError,
    SingularRoot,
    ZSeries,
    divide,
    solve_algebraic,
)


def poly(*coeffs, order=8, ring=QQ):
    return ZSeries(coeffs, order, ring)


small_series = st.builds(
    lambda cs: ZSeries(cs, 8, QQ),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=8),
)


class TestArithmetic:
    def test_difference_of_squares(self):
        a = poly(1, 1, order=3)
        b = poly(1, -1, order=3)
        assert (a * b).coeffs == (1, 0, -1)

    def test_hand_convolution(self):
        a = poly(1, 0, 1, 0, 2, order=5)
        assert (a * a).coeffs == (1, 0, 2, 0, 5)

    def test_order_is_minimum(self):
        a = poly(1, 1, order=5)
        b = poly(1, 1, order=3)
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_ring_mismatch(self):
        with pytest.raises(RingMismatch):
            poly(1) + poly(1, ring=QT)

    def test_scalar_subtraction(self):
        assert (poly(1, 2, order=3) - 5).coeffs == (-4, 2, 0)
        assert (5 - poly(1, 2, order=3)).coeffs == (4, -2, 0)
        got = poly(TPoly(1), TPoly(2), order=2, ring=QT) - TPoly([0, 1])
        assert got.coeffs == (TPoly([1, -1]), TPoly(2))

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a * b).coeffs == (b * a).coeffs


class TestOrderIsLength:
    def test_only_coefficients_and_ring_are_stored(self):
        assert ZSeries.__slots__ == ("coeffs", "ring")
        s = poly(1, 2, order=3)
        assert s.order == 3
        with pytest.raises(AttributeError):
            s.order = 5

    @given(small_series, small_series, st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40)
    def test_every_result_has_its_length_as_order(self, a, b, n, k):
        a = a.truncate(n)
        unit = ZSeries((1,) + b.coeffs[1:], b.order, QQ)
        even = ZSeries([0 if i % 2 else c for i, c in enumerate(a.coeffs)], n, QQ)
        expected = [
            (n, [-a, a * 3, a - 5, 5 - a]),
            (min(n, 8), [a + b, a - b, a * b, divide(a, unit)]),
            (8, [unit.inverse()]),
            (n + k, [a.shift(k)]),
            ((n + 1) // 2, [even.compress_even()]),
        ]
        for order, results in expected:
            for r in results:
                assert r.order == len(r.coeffs) == order

    @pytest.mark.parametrize("schedule", ["doubling", "linear"])
    def test_solver_returns_the_order_asked_for(self, schedule):
        for order in range(1, 12):
            root = solve_algebraic(avoidance_cubic(), 1, order, schedule=schedule)
            assert root.order == len(root.coeffs) == order


class TestDivision:
    def test_valuation_stripping(self):
        # no z power is stripped: a divisor's constant term must be +1 or -1
        with pytest.raises(DivisionByNonUnit, match="leading coefficient 0"):
            divide(poly(0, 0, 1, 0, 1), poly(0, 0, 1))

    def test_geometric(self):
        out = divide(poly(1, order=4), poly(1, -1, order=4))
        assert out.coeffs == (1, 1, 1, 1)

    def test_round_trip_unit(self):
        a = poly(3, 1, 4, 1)
        b = poly(1, 5, 9, 2)
        assert divide(a * b, b).coeffs == a.coeffs

    @given(small_series, small_series, st.sampled_from([1, -1]))
    @settings(max_examples=60)
    def test_div_mul_inverse(self, a, b, unit):
        with_unit = ZSeries((unit,) + b.coeffs[1:], b.order, b.ring)
        assert divide(a * with_unit, with_unit).coeffs == a.coeffs

    def test_nonunit_rejected(self):
        with pytest.raises(DivisionByNonUnit):
            divide(poly(1, order=4), poly(0, 1, order=4))

    def test_division_by_zero_rejected(self):
        with pytest.raises(DivisionByNonUnit):
            divide(poly(1), poly())


class TestSolver:
    def test_avoidance_cubic_series(self):
        s = avoidance_series(9)
        assert s.integer_coefficients() == [1, 1, 2, 6, 20, 71, 262, 994, 3852]

    def test_catalan(self):
        eq = AlgEquation([[-1], [1], [0, -1]], QQ)
        s = solve_algebraic(eq, 1, 5)
        # independent oracle: the classical convolution recurrence
        cat = [1]
        for n in range(1, 5):
            cat.append(sum(cat[i] * cat[n - 1 - i] for i in range(n)))
        assert s.integer_coefficients() == cat

    def test_marker_cubic_series(self):
        rows = marker_series(7).integer_coefficients()
        assert [list(r.coeffs) for r in rows] == [
            [1],
            [1],
            [2, 1],
            [6, 4],
            [20, 16],
            [71, 64, 2],
            [262, 261, 20],
        ]

    def test_not_a_root(self):
        with pytest.raises(NotARoot):
            solve_algebraic(avoidance_cubic(), 2, 4)

    def test_singular_root(self):
        eq = AlgEquation([[1, 1], [-2], [1]], QQ)  # (S-1)^2 + z: double root
        with pytest.raises(SingularRoot):
            solve_algebraic(eq, 1, 4)
        with pytest.raises(ValueError, match="S does not occur"):
            solve_algebraic(AlgEquation([[0, 1]], QQ), 0, 4)  # z = 0

    def test_derivative_without_s_says_so(self):
        with pytest.raises(ValueError, match="S does not occur in the equation"):
            AlgEquation([[0, 1]], QQ).derivative()

    def test_integrality_of_all_three_cubics(self):
        avoidance_series(40).integer_coefficients()
        marker_series(24).integer_coefficients()
        from skewdyck.kernel import GFMode, kernel_root

        kernel_root(40, GFMode.UNIVARIATE).integer_coefficients()

    @pytest.mark.parametrize("schedule", ["doubling", "linear"])
    def test_one_derivative_per_solve(self, monkeypatch, schedule):
        want = avoidance_series(20)
        built = []
        derivative = AlgEquation.derivative
        monkeypatch.setattr(AlgEquation, "derivative", lambda eq: built.append(eq) or derivative(eq))
        assert solve_algebraic(avoidance_cubic(), 1, 20, schedule) == want
        assert len(built) == 1

    @pytest.mark.parametrize(
        "order, steps",
        [
            (272, [2, 3, 5, 9, 17, 34, 68, 136, 272]),
            (256, [2, 4, 8, 16, 32, 64, 128, 256]),
            (5, [2, 3, 5]),
            (1, []),
        ],
    )
    def test_doubling_steps_up_through_the_halved_target(self, monkeypatch, order, steps):
        # No step works past the target, and there are still
        # ceil(log2(order)) of them.
        want = avoidance_series(order)
        eq = avoidance_cubic()
        orders = []
        apply = AlgEquation.apply
        monkeypatch.setattr(AlgEquation, "apply", lambda e, s: (e is eq and orders.append(s.order)) or apply(e, s))
        assert solve_algebraic(eq, 1, order) == want
        assert orders == [1, *steps]  # the seed's check, then one residual per step
        assert len(steps) == (order - 1).bit_length()

    def test_marker_degree_bound(self):
        rows = marker_series(20).integer_coefficients()
        for n, r in enumerate(rows):
            assert len(r.coeffs) <= n + 1


class TestEquationEvaluateT:
    def test_marker_cubic_at_t1(self):
        # at t = 1 the z^2 term of the constant coefficient cancels
        assert marker_cubic().evaluate_t(1).coeff_polys[0] == (-1, 1, 0)

    def test_commutes_with_solving(self):
        at2 = solve_algebraic(marker_cubic().evaluate_t(2), 1, 12)
        assert at2.coeffs == tuple(c(2) for c in marker_series(12).coeffs)

    def test_requires_marker_ring(self):
        with pytest.raises(RingMismatch):
            avoidance_cubic().evaluate_t(0)


class TestResidual:
    def test_solver_output_residual_zero(self):
        eq = avoidance_cubic()
        assert eq.apply(solve_algebraic(eq, 1, 20)).valuation() is None

    def test_constant_one_not_a_solution(self):
        r = avoidance_cubic().apply(poly(1, order=4))
        # direct substitution: -z + 2 z^2 + 0 z^3
        assert r.coeffs == (0, Fraction(-1), Fraction(2), 0)

    def test_kept_series_satisfies_avoidance_cubic(self):
        assert avoidance_cubic().apply(avoidance_series(30)).valuation() is None


class TestSerialization:
    def test_json_round_trip_shape(self):
        import json

        s = avoidance_series(6)
        payload = json.dumps([str(c) for c in s.integer_coefficients()])
        assert json.loads(payload) == ["1", "1", "2", "6", "20", "71"]


class TestShapeOps:
    def test_compress_even(self):
        s = poly(1, 0, 2, 0, 3, order=5)
        assert s.compress_even().coeffs == (1, 2, 3)
        for order in range(1, 10):
            c = poly(*[0 if i % 2 else i + 1 for i in range(order)], order=order).compress_even()
            assert c.order == len(c.coeffs) == (order + 1) // 2, order
            assert c.coeffs == tuple(range(1, order + 1, 2)), order

    def test_compress_rejects_odd_terms(self):
        with pytest.raises(Exception, match="odd coefficient"):
            poly(1, 1).compress_even()

    def test_shift_raises_order(self):
        s = poly(1, 2, order=3).shift(2)
        assert s.order == 5
        assert s.coeffs == (0, 0, 1, 2, 0)


class TestIntegerRings:
    def test_coerce_integral_fraction_to_int(self):
        assert type(QQ.coerce(Fraction(4, 2))) is int
        assert QQ.coerce(Fraction(4, 2)) == 2
        assert QT.coerce(TPoly([Fraction(6, 3), 5])).coeffs == (2, 5)
        assert all(type(c) is int for c in QT.coerce(TPoly([Fraction(6, 3), 5])).coeffs)

    def test_coerce_rejects_non_integral(self):
        with pytest.raises(ValueError):
            QQ.coerce(Fraction(1, 2))
        with pytest.raises(ValueError):
            QT.coerce(TPoly([1, Fraction(1, 2)]))
        with pytest.raises(ValueError):
            ZSeries([1, Fraction(1, 3)], 2, QQ)

    def test_units_are_plus_minus_one(self):
        non_units = {QQ: (0, 2), QT: (0, 2, TPoly([1, 1]))}
        for ring, constants in non_units.items():
            a = poly(3, -1, 4, order=3, ring=ring)
            for unit in (1, -1):
                assert divide(a, poly(unit, order=3, ring=ring)) == a * unit
            for c in constants:
                with pytest.raises(DivisionByNonUnit):
                    divide(a, poly(c, order=3, ring=ring))

    def test_inverse_needs_unit_constant(self):
        with pytest.raises(DivisionByNonUnit):
            poly(2, 1).inverse()
        inv = poly(-1, 1).inverse()
        assert inv.coeffs == (-1,) * 8
        assert all(type(c) is int for c in inv.coeffs)

    def test_exact_division_by_non_unit(self):
        # the quotient 1 + 2z + 3z^2 is integral, but 3 is not a unit
        with pytest.raises(DivisionByNonUnit, match="leading coefficient 3"):
            divide(poly(3, 6, 9), poly(3))
        with pytest.raises(DivisionByNonUnit):
            divide(poly(1), poly(2))
        with pytest.raises(DivisionByNonUnit):
            divide(poly(1, ring=QT), poly(TPoly([1, 1]), ring=QT))

    def test_integer_coefficients_is_a_type_guard(self):
        bad = ZSeries._raw((1, Fraction(1, 2)), QQ)
        with pytest.raises(SeriesError):
            bad.integer_coefficients()

    def test_newton_rejects_non_unit_derivative(self):
        eq = AlgEquation([[0, -1], [2]], QQ)  # 2 S - z: S = z/2 is not integral
        with pytest.raises(SingularRoot):
            solve_algebraic(eq, 0, 4)

    def test_half_precision_newton_matches_linear_schedule(self):
        from skewdyck.kernel import GFMode, kernel_equation

        eq = kernel_equation(GFMode.BIVARIATE)
        assert solve_algebraic(eq, 1, 40).coeffs == solve_algebraic(eq, 1, 40, schedule="linear").coeffs
