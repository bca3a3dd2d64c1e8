"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances and runtime budgets are fixed here, not tuned.
"""

import math
import time

from skewdyck import automaton, golden
from skewdyck.asymptotics import AMPLITUDE, GROWTH, coefficient_ratio, dominant_singularity_numeric
from skewdyck.cubics import avoidance_cubic, avoidance_series, marker_series
from skewdyck.holonomic import INITIAL, extend
from skewdyck.kernel import GFMode, kernel_equation, kernel_root, level_gf
from skewdyck.paths import udr_profile
from skewdyck.rings import TPoly


def report(num, name):
    print(f"ACCEPTANCE {num} PASS: {name}")


def test_01_paper_series_reproduction():
    start = time.perf_counter()
    got = avoidance_series(9).integer_coefficients()
    elapsed = time.perf_counter() - start
    assert got == [1, 1, 2, 6, 20, 71, 262, 994, 3852]
    assert elapsed < 1.0, f"solver took {elapsed:.3f}s"
    report(1, "avoidance cubic reproduces the 9-term series in under 1s")


def test_02_bivariate_reproduction():
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
    report(2, "marker cubic matches the displayed polynomials through z^12")


def test_03_oracle_equivalence_to_length_20():
    start = time.perf_counter()
    hist = udr_profile(20)
    for m in range(21):
        state = automaton.run(m)
        dp = {}
        for (layer, level), w in state.items():
            dp[level] = dp.get(level, TPoly()) + w
        dp = {k: v for k, v in dp.items() if v}
        expected = {}
        for level, counter in hist[m].items():
            coeffs = [0] * (max(counter) + 1)
            for j, c in counter.items():
                coeffs[j] = c
            expected[level] = TPoly(coeffs)
        assert dp == expected, f"mismatch at length {m}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"DP equals brute-force histograms for all m <= 20 ({elapsed:.1f}s)")


def test_04_theorem_equivalence_levels():
    for mode in (GFMode.BIVARIATE, GFMode.UNIVARIATE):
        gfs = [level_gf(k, 25, mode) for k in range(7)]
        for m, state in enumerate(automaton.walk(24)):
            by_level = {}
            for (layer, level), w in state.items():
                by_level[level] = by_level.get(level, TPoly()) + w
            for k in range(7):
                got = gfs[k].coeffs[m]
                dp = by_level.get(k, TPoly())
                if mode is GFMode.UNIVARIATE:
                    assert got == dp(0), (mode, k, m)
                else:
                    assert got == dp, (mode, k, m)
    report(4, "level generating functions equal DP counts for k <= 6, m <= 24, both modes")


def test_05_kernel_root():
    utilde = kernel_root(16, GFMode.UNIVARIATE)
    want = golden.utilde_display()  # z * u1 through z^14
    assert utilde.integer_coefficients()[: len(want)] == want
    big = kernel_root(64, GFMode.UNIVARIATE)
    assert kernel_equation(GFMode.UNIVARIATE).apply(big).valuation() is None
    report(5, "utilde matches the published u1 series and the kernel residual vanishes mod z^64")


def test_06_holonomic_consistency():
    seq = extend([1, 1, 2, 6], 200)  # raises NonIntegralStep on any inexact division
    assert seq == avoidance_series(201).integer_coefficients()
    # Row n of the ODE fixes s_{n+1}, so agreement to n=28 is a residual zero mod z^28.
    assert extend(INITIAL, 28) == list(level_gf(0, 57, GFMode.UNIVARIATE).compress_even().coeffs)
    report(6, "recurrence agrees with the solver to n=200 and, from s_0 = 1, with kernel level 0 to n=28")


def test_07_transformation_chain():
    assert avoidance_cubic().apply(avoidance_series(30)).valuation() is None
    lvl0 = level_gf(0, 60, GFMode.UNIVARIATE).compress_even()
    assert avoidance_cubic().apply(lvl0).valuation() is None
    report(7, "solver series and kernel level-0 series at z^2 -> Z satisfy the avoidance cubic to order 30")


def test_08_asymptotics():
    start = time.perf_counter()
    assert abs(dominant_singularity_numeric() - 1 / GROWTH) < 1e-12  # closed form vs numeric z0
    s3 = math.sqrt(3.0)
    assert abs(1 / GROWTH - (2 / 11) * (3 * s3 - 4)) < 1e-12
    assert abs(GROWTH - (2 + 1.5 * s3)) < 1e-12
    assert abs(AMPLITUDE - math.sqrt(2 + 8 * s3 / 9) / (2 * math.sqrt(math.pi))) < 1e-12
    coeffs = extend([1, 1, 2, 6], 1600)
    ratio = coefficient_ratio(1000, coeffs)
    assert 0.99 <= ratio <= 1.01
    devs = [abs(coefficient_ratio(n, coeffs) - 1.0) for n in (50, 100, 200, 400, 800, 1600)]
    assert all(b < a for a, b in zip(devs, devs[1:]))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(8, f"ratio(1000)={ratio:.6f}, deviations strictly shrink, constants at 1e-12 ({elapsed:.1f}s)")


def test_09_t1_collapse():
    rows = marker_series(7).integer_coefficients()
    assert [r(1) for r in rows] == [1, 1, 3, 10, 36, 137, 543]
    report(9, "t=1 totals at half-lengths 0..6 are 1,1,3,10,36,137,543")
