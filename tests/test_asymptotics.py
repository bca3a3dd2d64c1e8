import math

import pytest

from skewdyck.asymptotics import (
    AMPLITUDE,
    GROWTH,
    MissingCoefficient,
    coefficient_ratio,
    convergence_report,
    dominant_singularity_numeric,
    log_estimate,
)
from skewdyck.holonomic import extend


@pytest.fixture(scope="module")
def coeffs():
    return extend([1, 1, 2, 6], 1600)


class TestConstants:
    def test_closed_forms(self):
        s3 = math.sqrt(3.0)
        assert 1 / GROWTH == pytest.approx((2 / 11) * (3 * s3 - 4), abs=1e-15)
        assert 1 / GROWTH == pytest.approx(0.2174822586739, abs=1e-12)
        assert GROWTH == pytest.approx(4.598076211353316, abs=1e-12)
        assert AMPLITUDE == pytest.approx(
            math.sqrt(2 + 8 * s3 / 9) / (2 * math.sqrt(math.pi)), abs=1e-15
        )

    def test_growth_times_z0_is_one(self):
        assert abs(GROWTH * (2 / 11) * (3 * math.sqrt(3.0) - 4) - 1.0) < 1e-14

    def test_numeric_rederivation(self):
        assert abs(dominant_singularity_numeric() - 1 / GROWTH) < 1e-12


class TestEstimate:
    def test_formula_at_n1(self):
        assert math.exp(log_estimate(1)) == pytest.approx(AMPLITUDE * GROWTH, rel=1e-12)

    def test_log_space_consistency(self):
        for n in (5, 50, 400):
            direct = AMPLITUDE * GROWTH**n * n**-1.5
            assert math.exp(log_estimate(n)) == pytest.approx(direct, rel=1e-9)

    def test_no_overflow_in_log_space(self):
        assert math.isfinite(log_estimate(100000))

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            log_estimate(0)


class TestRatios:
    def test_ratio_at_100(self, coeffs):
        assert 0.9 <= coefficient_ratio(100, coeffs) <= 1.1

    def test_ratio_at_1000(self, coeffs):
        assert 0.99 <= coefficient_ratio(1000, coeffs) <= 1.01

    def test_deviation_strictly_shrinks(self, coeffs):
        devs = [
            abs(coefficient_ratio(n, coeffs) - 1.0)
            for n in (50, 100, 200, 400, 800, 1600)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_big_integer_log_is_accurate(self, coeffs):
        # cross-check math.log on a several-hundred-digit int via digit length
        s = coeffs[1600]
        approx = (len(str(s)) - 1) * math.log(10) + math.log(
            int(str(s)[:15]) / 10**14
        )
        assert math.log(s) == pytest.approx(approx, rel=1e-12)


class TestReport:
    def test_rows(self, coeffs):
        rows = convergence_report([50, 100], coeffs)
        assert [r[0] for r in rows] == [50, 100]
        assert rows[0][1] == coeffs[50]
        assert rows[0][2] == pytest.approx(math.exp(log_estimate(50)))
        assert rows[0][3] == pytest.approx(coefficient_ratio(50, coeffs))

    def test_overflowed_estimate_reported_as_none(self, coeffs):
        rows = convergence_report([800], coeffs)
        assert rows[0][2] is None
        assert math.isfinite(rows[0][3])

    def test_empty(self, coeffs):
        assert convergence_report([], coeffs) == []

    def test_missing_coefficient(self):
        with pytest.raises(MissingCoefficient):
            convergence_report([50], extend([1, 1, 2, 6], 10))
