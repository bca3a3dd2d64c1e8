import pytest
from hypothesis import given, settings, strategies as st

from skewdyck import golden, series
from skewdyck.automaton import count
from skewdyck.cubics import avoidance_cubic, avoidance_series, marker_series, transformed_cubic
from skewdyck.kernel import (
    GFMode,
    boundary_constants,
    identity_total,
    kernel_equation,
    inverse_power,
    kernel_root,
    level_gf,
)
from skewdyck.rings import QQ, TPoly
from skewdyck.series import DivisionByNonUnit, ZSeries, divide


class TestKernelRoot:
    def test_univariate_display(self):
        utilde = kernel_root(16, GFMode.UNIVARIATE)
        want = golden.utilde_display()
        assert utilde.integer_coefficients()[: len(want)] == want

    def test_residual_vanishes_both_modes(self):
        for mode in GFMode:
            assert kernel_equation(mode).apply(kernel_root(32, mode)).is_zero()

    def test_bivariate_at_t0_equals_univariate(self):
        uni = kernel_root(20, GFMode.UNIVARIATE)
        biv = kernel_root(20, GFMode.BIVARIATE)
        assert tuple(c(0) for c in biv.coeffs) == uni.coeffs

    def test_bivariate_t_term_enters_at_z6(self):
        biv = kernel_root(10, GFMode.BIVARIATE)
        assert biv.coeffs[6] == TPoly([-2, -1])  # so (1 - utilde)/z^2 carries (2 + t) z^4

    def test_bivariate_at_t1_satisfies_t1_kernel(self):
        biv = ZSeries([c(1) for c in kernel_root(16, GFMode.BIVARIATE).coeffs], 16, QQ)
        # at t=1 the constant term of the cubic vanishes entirely
        from skewdyck.series import AlgEquation

        eq = AlgEquation([[0], [0, 0, 2, 0, -1], [-1, 0, -1], [1]], QQ)
        assert eq.apply(biv).is_zero()

    def test_perturbed_root_fails_residual(self):
        bumped = kernel_root(16, GFMode.UNIVARIATE) + ZSeries([0] * 5 + [1], 16, QQ)
        assert not kernel_equation(GFMode.UNIVARIATE).apply(bumped).is_zero()


class TestDerivedAtTZero:
    """The t = 0 equations are derived from the Z[t] ones; the literals
    below are the only transcription of them left."""

    @pytest.mark.parametrize(
        "derived,literal",
        [
            (
                avoidance_cubic,
                [[-1, 1, 1], [1, 0, -1], [0, -2, 1], [0, 0, 1]],
            ),
            (
                lambda: kernel_equation(GFMode.UNIVARIATE),
                [[0, 0, 0, 0, 0, 0, -1], [0, 0, 2, 0, -1], [-1, 0, -1], [1]],
            ),
        ],
        ids=["avoidance-cubic", "univariate-kernel"],
    )
    def test_matches_transcribed_literal(self, derived, literal):
        eq = derived()
        assert eq.ring is QQ
        assert eq.coeff_polys == tuple(tuple(p) for p in literal)
        assert all(type(c) is int for p in eq.coeff_polys for c in p)


class TestBoundaryConstants:
    def test_univariate_total(self):
        c = boundary_constants(17, GFMode.UNIVARIATE)
        total = 1 + c["g0"] + c["h0"] + c["k0"]
        assert total.integer_coefficients() == [
            1, 0, 1, 0, 2, 0, 6, 0, 20, 0, 71, 0, 262, 0, 994, 0, 3852,
        ]

    def test_bivariate_total(self):
        c = boundary_constants(9, GFMode.BIVARIATE)
        total = 1 + c["g0"] + c["h0"] + c["k0"]
        got = total.integer_coefficients()
        assert [list(p.coeffs) if p.coeffs else [0] for p in got] == [
            [1], [0], [1], [0], [2, 1], [0], [6, 4], [0], [20, 16],
        ]

    def test_g0_matches_layer_series(self):
        from skewdyck.automaton import walk

        g0 = boundary_constants(12, GFMode.UNIVARIATE)["g0"]
        dp = [state.get(("G", 0), TPoly()) for state in walk(11)]
        for m in range(12):
            assert dp[m](0) == g0.coeffs[m]

    def test_nonnegative_integer_coefficients(self):
        c = boundary_constants(14, GFMode.UNIVARIATE)
        for name in ("g0", "h0", "k0"):
            assert all(x >= 0 for x in c[name].integer_coefficients()), name

    @pytest.mark.parametrize("mode", list(GFMode))
    def test_small_orders_are_truncations(self, mode):
        full = boundary_constants(30, mode)
        for order in (1, 2):
            series._ROOTS.clear()  # solve afresh rather than truncate the order-30 root
            got = boundary_constants(order, mode)
            for name in ("g0", "h0", "k0"):
                assert got[name] == full[name].truncate(order), (order, name)


def _power(s, k):
    """s^k by repeated multiplication."""
    out = ZSeries([1], s.order, s.ring)
    for _ in range(k):
        out = out * s
    return out


def _level_gf_by_powers(k, order, mode):
    """The former level_gf: divide by utilde^k formed by repeated products."""
    keep = order - k
    ut = kernel_root(keep + 2, mode)
    base = divide(1 - ut, ZSeries([0, 0, 1], keep + 2, ut.ring))
    if k:
        base = divide(base, _power(ut.truncate(keep), k))
    return base.shift(k)


class TestLevelGF:
    @pytest.mark.parametrize("mode", list(GFMode))
    def test_power_recurrence_matches_division_by_powers(self, mode):
        for k in range(41):
            assert level_gf(k, 60, mode) == _level_gf_by_powers(k, 60, mode), k

    def test_level0_equals_boundary_total(self):
        c = boundary_constants(16, GFMode.UNIVARIATE)
        total = 1 + c["g0"] + c["h0"] + c["k0"]
        assert level_gf(0, 16, GFMode.UNIVARIATE).coeffs == total.coeffs

    def test_level1_single_path(self):
        gf = level_gf(1, 4, GFMode.UNIVARIATE)
        assert gf.coeffs[1] == 1
        assert gf.coeffs[0] == 0

    def test_level_beyond_order_is_zero(self):
        # valuation >= k, so nothing survives; no kernel root is solved
        assert level_gf(10**6, 5, GFMode.BIVARIATE).is_zero()
        assert level_gf(5, 5, GFMode.UNIVARIATE).coeffs == (0,) * 5

    def test_level2_track_matches_dp(self):
        gf = level_gf(2, 7, GFMode.BIVARIATE)
        assert gf.coeffs[6] == count(6, 2)

    def test_dp_equivalence_small(self):
        for k in range(4):
            gf = level_gf(k, 13, GFMode.BIVARIATE)
            forb = level_gf(k, 13, GFMode.UNIVARIATE)
            for m in range(13):
                assert gf.coeffs[m] == count(m, k), (k, m)
                assert forb.coeffs[m] == count(m, k)(0), (k, m)


class TestInversePower:
    @given(st.lists(st.integers(min_value=-9, max_value=9), max_size=7), st.integers(min_value=0, max_value=6))
    @settings(max_examples=100)
    def test_matches_inverse_of_power(self, tail, k):
        s = ZSeries([1, *tail], 8, QQ)
        got = inverse_power(s, k)
        assert got == _power(s, k).inverse()
        assert all(type(c) is int for c in got.coeffs)

    def test_marker_ring(self):
        s = marker_series(12)
        assert inverse_power(s, 5) == _power(s, 5).inverse()

    @pytest.mark.parametrize("constant", [-1, 2, 0])
    def test_needs_constant_term_one(self, constant):
        with pytest.raises(DivisionByNonUnit):
            inverse_power(ZSeries([constant, 1], 8, QQ), 2)


class TestIdentities:
    def test_boundary_identity_univariate(self):
        lhs, rhs = identity_total(20, GFMode.UNIVARIATE)
        assert lhs.agrees_with(rhs)

    def test_boundary_identity_bivariate(self):
        lhs, rhs = identity_total(14, GFMode.BIVARIATE)
        assert lhs.agrees_with(rhs)

    def test_half_length_collapse(self):
        lvl0 = level_gf(0, 40, GFMode.UNIVARIATE).compress_even()
        assert lvl0.agrees_with(avoidance_series(20))

    def test_half_length_collapse_bivariate(self):
        lvl0 = level_gf(0, 24, GFMode.BIVARIATE).compress_even()
        assert lvl0.agrees_with(marker_series(12))

    def test_transformation_chain(self):
        compressed = level_gf(0, 40, GFMode.UNIVARIATE).compress_even()
        assert transformed_cubic().apply(compressed).is_zero()

    def test_cancellation_div_example(self):
        ut = kernel_root(12, GFMode.UNIVARIATE)
        out = divide(1 - ut, ZSeries([0, 0, 1], 12, QQ))
        assert out.coeffs[:6] == (1, 0, 1, 0, 2, 0)
