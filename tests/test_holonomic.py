from fractions import Fraction

import pytest

from skewdyck import holonomic, verify
from skewdyck.cubics import avoidance_series
from skewdyck.holonomic import NonIntegralStep, extend

INITIAL = [1, 1, 2, 6]


# The 4th-order recurrence written out by hand, independently of the ODE
# that holonomic reads it from.
def p0(n: int) -> int:
    return -44 * n * (n + 1)


def p1(n: int) -> int:
    return -2 * (n + 1) * (10 * n - 7)


def p2(n: int) -> int:
    return 3 * (115 + 106 * n + 23 * n * n)


def p3(n: int) -> int:
    return -32 * (n + 4) * (n + 3)


def p4(n: int) -> int:
    return 4 * (n + 5) * (n + 4)


def recurrence_residual(seq):
    """Exact residual of the recurrence at each n with s_{n+4} in seq.

    extend appends a term only when its division is exact, so this is 0
    on everything extend returns; the tests apply it to other sequences.
    """
    return [
        p0(n) * seq[n] + p1(n) * seq[n + 1] + p2(n) * seq[n + 2] + p3(n) * seq[n + 3] + p4(n) * seq[n + 4]
        for n in range(len(seq) - 4)
    ]


class TestExtend:
    def test_published_terms(self):
        s = extend(INITIAL, 8)
        assert s == [1, 1, 2, 6, 20, 71, 262, 994, 3852]

    def test_single_step(self):
        assert extend(INITIAL, 4)[4] == 20

    def test_perturbed_initials_detected(self):
        # either an inexact division or divergence from the solver series
        try:
            bad = extend([1, 1, 2, 7], 20)
        except NonIntegralStep as exc:
            assert exc.n <= 20
        else:
            good = avoidance_series(21).integer_coefficients()
            assert bad != good

    def test_wrong_fourth_term_names_its_step(self):
        with pytest.raises(NonIntegralStep) as info:
            extend([1, 1, 2, 7], 20)
        assert (str(info.value), info.value.n) == ("recurrence step at n=0 is not integral (remainder 64)", 0)

    def test_requires_an_initial_term(self):
        with pytest.raises(ValueError, match="at least one initial term"):
            extend([], 8)

    @pytest.mark.parametrize("term", [6.9, Fraction(13, 2), "6"], ids=["float", "fraction", "str"])
    def test_a_non_integer_term_raises_type_error(self, term):
        # Truncation would turn 6.9 and 13/2 into the true s_3 = 6.
        with pytest.raises(TypeError):
            extend([1, 1, 2, term], 6)

    def test_s0_alone_gives_the_four_term_continuation(self):
        assert holonomic.INITIAL == (1,)
        for n in (0, 1, 2, 3, 4, 600):
            assert extend((1,), n) == extend(INITIAL, n)
        assert len(extend((1,), 600)) == 601

    def test_a_longer_prefix_is_continued(self):
        assert extend([1, 1, 2, 6, 20, 71], 30) == extend((1,), 30)


class TestRecurrenceResidual:
    def test_solver_sequence_satisfies_recurrence(self):
        seq = avoidance_series(201).integer_coefficients()
        residuals = recurrence_residual(seq)
        assert residuals == [0] * len(residuals)

    def test_reports_first_failing_n(self):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430]
        residuals = recurrence_residual(catalan)
        assert any(residuals)

    def test_zero_sequence(self):
        assert recurrence_residual([0] * 10) == [0] * 6

    def test_valid_from_n_zero(self):
        # no shifted validity range: the recurrence holds from n = 0 on
        seq = extend(INITIAL, 60)
        assert recurrence_residual(seq) == [0] * 57


class TestReadOffTheOde:
    def test_step_polynomials_are_the_written_recurrence(self):
        derived = holonomic.step_polynomials()
        for p, (a, b, c) in zip((p0, p1, p2, p3, p4), derived, strict=True):
            assert [a + b * n + c * n * n for n in range(50)] == [p(n) for n in range(50)]

    @staticmethod
    def _changed(monkeypatch, which, i):
        ode = [list(poly) for poly in holonomic.ODE]
        ode[which][i] += 1
        monkeypatch.setattr(holonomic, "ODE", tuple(map(tuple, ode)))

    @pytest.mark.parametrize(
        "which, i", [(1, 0), (1, 1), *((2, i) for i in range(5)), *((3, i) for i in range(1, 6))]
    )
    def test_one_changed_coefficient_breaks_both(self, monkeypatch, which, i):
        # Both verify checks of the ODE run the recurrence read off it, so
        # a change to any one coefficient of A1, B1 or B2 fails each.
        self._changed(monkeypatch, which, i)
        with pytest.raises(NonIntegralStep) as info:
            extend(INITIAL, 20)
        assert info.value.n <= 16
        assert not verify.check_recurrence().ok and not verify.check_ode().ok

    def test_b2_at_zero_would_raise_the_order(self, monkeypatch):
        # A constant term in B2 puts s_{n+5} into row n + 3.
        self._changed(monkeypatch, 3, 0)
        with pytest.raises(ValueError, match="order 4"):
            extend(INITIAL, 20)
        detail = "ValueError: the ODE's rows are not a recurrence of order 4"
        assert verify.check_ode() == verify.CheckResult("ode-residual", False, detail)

    def test_inhomogeneous_term_is_read_too(self, monkeypatch):
        # A four-term seed skips rows 0 and 1, where A0 enters; s_0 alone does not.
        self._changed(monkeypatch, 0, 1)
        assert extend(INITIAL, 20) == avoidance_series(21).integer_coefficients()
        assert not verify.check_ode().ok

    @pytest.mark.parametrize("i", [0, 1])
    def test_from_s0_a_changed_inhomogeneous_term_fails_a_division(self, monkeypatch, i):
        # A0 enters rows 0 and 1 only, which a four-term seed skips.
        self._changed(monkeypatch, 0, i)
        with pytest.raises(NonIntegralStep) as info:
            extend(holonomic.INITIAL, 20)
        assert info.value.n == i - 3


class TestThreeWayAgreement:
    def test_recurrence_solver_kernel_agree(self):
        from skewdyck.kernel import GFMode, level_gf

        n = 200
        via_recurrence = extend(INITIAL, n)
        via_solver = avoidance_series(n + 1).integer_coefficients()
        via_kernel = (
            level_gf(0, 2 * n + 1, GFMode.UNIVARIATE)
            .compress_even()
            .integer_coefficients()
        )
        assert via_recurrence == via_solver == via_kernel

