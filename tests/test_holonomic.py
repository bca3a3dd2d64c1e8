import pytest

from skewdyck.cubics import avoidance_series
from skewdyck.holonomic import NonIntegralStep, extend, ode_residual, p0, p1, p2, p3, p4
from skewdyck.rings import QQ
from skewdyck.series import ZSeries

INITIAL = [1, 1, 2, 6]


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

    def test_requires_four_initials(self):
        with pytest.raises(ValueError):
            extend([1, 1, 2], 8)


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


class TestOdeResidual:
    def test_vanishes_on_avoidance_series(self):
        r = ode_residual(avoidance_series(30))
        assert r.order == 28
        assert r.is_zero()

    def test_constant_one(self):
        r = ode_residual(ZSeries([1], 6, QQ))
        assert r.coeffs[0] == -8
        assert r.coeffs[1] == 16

    def test_zero_series(self):
        r = ode_residual(ZSeries([], 6, QQ))
        assert r.coeffs[0] == -8
        assert r.coeffs[1] == 31
