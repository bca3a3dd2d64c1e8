import pytest
from hypothesis import given, settings, strategies as st

import inspect

from skewdyck import cubics, golden, kernel, series, verify
from skewdyck.automaton import count
from skewdyck.cubics import avoidance_cubic, avoidance_series, marker_cubic, marker_series
from skewdyck.kernel import (
    GFMode,
    boundary_constants,
    kernel_equation,
    inverse_power,
    kernel_root,
    level_gf,
)
from skewdyck.rings import QQ, QT, T, TPoly
from skewdyck.series import AlgEquation, DivisionByNonUnit, ZSeries, divide


class TestKernelRoot:
    def test_univariate_display(self):
        utilde = kernel_root(16, GFMode.UNIVARIATE)
        want = golden.utilde_display()
        assert utilde.integer_coefficients()[: len(want)] == want

    def test_residual_vanishes_both_modes(self):
        for mode in GFMode:
            assert kernel_equation(mode).apply(kernel_root(32, mode)).valuation() is None

    def test_newton_with_slope_minus_one(self):
        # the negated cubic has dP/dS = -1 at the origin and the same root
        eq = kernel_equation(GFMode.BIVARIATE)
        negated = AlgEquation([[-c for c in p] for p in eq.coeff_polys], QT)
        assert negated.derivative().apply(ZSeries([1], 1, QT)).coeffs == (-TPoly(1),)
        assert series.solve_algebraic(negated, 1, 24) == kernel_root(24, GFMode.BIVARIATE)

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
        assert eq.apply(biv).valuation() is None

    def test_perturbed_root_fails_residual(self):
        bumped = kernel_root(16, GFMode.UNIVARIATE) + ZSeries([0] * 5 + [1], 16, QQ)
        assert kernel_equation(GFMode.UNIVARIATE).apply(bumped).valuation() is not None


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


def _boundary_total(order, mode):
    """1 + g0 + h0 + k0, which equals the level-0 series."""
    c = boundary_constants(order, mode)
    return 1 + c["g0"] + c["h0"] + c["k0"]


class TestBoundaryConstants:
    def test_univariate_total(self):
        assert _boundary_total(17, GFMode.UNIVARIATE).integer_coefficients() == [
            1, 0, 1, 0, 2, 0, 6, 0, 20, 0, 71, 0, 262, 0, 994, 0, 3852,
        ]

    def test_bivariate_total(self):
        got = _boundary_total(9, GFMode.BIVARIATE).integer_coefficients()
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
    num = 1 - ut
    assert not num.coeffs[0] and not num.coeffs[1]
    base = ZSeries(num.coeffs[2:], keep, ut.ring)  # the division by z^2
    if k:
        base = divide(base, _power(ut.truncate(keep), k))
    return base.shift(k)


class TestLevelGF:
    @pytest.mark.parametrize("mode", list(GFMode))
    def test_power_recurrence_matches_division_by_powers(self, mode):
        for k in range(41):
            assert level_gf(k, 60, mode) == _level_gf_by_powers(k, 60, mode), k

    def test_level0_equals_boundary_total(self):
        total = _boundary_total(16, GFMode.UNIVARIATE)
        assert level_gf(0, 16, GFMode.UNIVARIATE).coeffs == total.coeffs

    def test_level1_single_path(self):
        gf = level_gf(1, 4, GFMode.UNIVARIATE)
        assert gf.coeffs[1] == 1
        assert gf.coeffs[0] == 0

    def test_level_beyond_order_is_zero(self):
        # valuation >= k, so nothing survives; no kernel root is solved
        assert level_gf(10**6, 5, GFMode.BIVARIATE).valuation() is None
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


class TestSolveOrders:
    """The order each route solves the kernel cubic at, which no value
    shows: a longer solve gives the same truncated series, only later.
    The autouse cold_roots fixture starts each case with no kept root."""

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 20])
    @pytest.mark.parametrize("mode", list(GFMode))
    def test_level_gf_solves_to_the_surviving_terms(self, mode, order):
        for k in range(order):
            series._ROOTS.clear()
            level_gf(k, order, mode)
            assert series._ROOTS[("kernel", mode)].order == order - k + 2, k

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 20])
    @pytest.mark.parametrize("mode", list(GFMode))
    def test_boundary_constants_solve_at_their_order(self, mode, order):
        boundary_constants(order, mode)
        assert series._ROOTS[("kernel", mode)].order == order


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
        assert _boundary_total(20, GFMode.UNIVARIATE).coeffs == level_gf(0, 20, GFMode.UNIVARIATE).coeffs

    def test_boundary_identity_bivariate(self):
        assert _boundary_total(14, GFMode.BIVARIATE).coeffs == level_gf(0, 14, GFMode.BIVARIATE).coeffs

    def test_half_length_collapse(self):
        lvl0 = level_gf(0, 40, GFMode.UNIVARIATE).compress_even()
        assert lvl0.coeffs == avoidance_series(20).coeffs

    def test_half_length_collapse_bivariate(self):
        lvl0 = level_gf(0, 24, GFMode.BIVARIATE).compress_even()
        assert lvl0.coeffs == marker_series(12).coeffs

    def test_transformation_chain(self):
        compressed = level_gf(0, 40, GFMode.UNIVARIATE).compress_even()
        assert avoidance_cubic().apply(compressed).valuation() is None

    def test_transformation_chain_bivariate(self):
        compressed = level_gf(0, 60, GFMode.BIVARIATE).compress_even()
        assert marker_cubic().apply(compressed).valuation() is None

    def test_cancellation_div_example(self):
        # divide takes no z power: level_gf cancels the z^2 by a slice
        num = 1 - kernel_root(12, GFMode.UNIVARIATE)
        with pytest.raises(DivisionByNonUnit, match="leading coefficient 0"):
            divide(num, ZSeries([0, 0, 1], 12, QQ))
        assert num.coeffs[:8] == (0, 0, 1, 0, 1, 0, 2, 0)


def _at(polys, x, y):
    """sum_i c_i(x) y^i for the coefficient polynomials c_i of an
    equation, with series x and y in place of its variable and unknown
    (Horner in both)."""

    def poly_at(p):
        acc = ZSeries((), x.order, x.ring)
        for c in reversed(p):
            acc = acc * x + c
        return acc

    acc = ZSeries((), x.order, x.ring)
    for p in reversed(polys):
        acc = acc * y + poly_at(p)
    return acc


class TestRationalParametrization:
    """The kernel curve is rational in a parameter v.  With

        P = 1 - v - v^2 - (1 - t) v^3,   Z = v (1 - 2v) / P,
        utilde = (1 - 2v) / P,   H = (1 - v - (1 - t) v^2) / (1 - 2v),

    (Z, H) is a zero of the marker cubic and (Z, utilde) of the kernel
    cubic in Z = z^2.  Cleared of their denominators, P^2 (1 - 2v)^3 and
    P^3, the residuals have degree <= 10 and <= 6 in v, so vanishing mod
    v^12 makes each an identity in Z[t][v].  This ties the marker cubic
    transcribed in `cubics` to the kernel cubic transcribed in `kernel`
    with no truncation."""

    ORDER = 12

    @pytest.fixture
    def curve(self):
        v = ZSeries([0, 1], self.ORDER, QT)
        p = 1 - v - v * v - v * v * v * (1 - T)
        return {
            "Z": divide(v * (1 - 2 * v), p),
            "utilde": divide(1 - 2 * v, p),
            "H": divide(1 - v - v * v * (1 - T), 1 - 2 * v),
        }

    def test_marker_cubic_vanishes(self, curve):
        assert _at(marker_cubic().coeff_polys, curve["Z"], curve["H"]).valuation() is None

    def test_kernel_cubic_vanishes(self, curve):
        polys = kernel_equation(GFMode.BIVARIATE).coeff_polys
        assert not any(c for p in polys for c in p[1::2])  # a cubic in z^2
        assert _at([p[0::2] for p in polys], curve["Z"], curve["utilde"]).valuation() is None

    def test_level0_is_one_minus_utilde_over_z(self, curve):
        assert curve["Z"] * curve["H"] == 1 - curve["utilde"]


def _built_equations():
    """(label, equation) for every AlgEquation that `cubics` and `kernel`
    build, found by the builders' return annotation so that a new builder
    is covered too; a builder that takes an argument takes the mode."""
    for module in (cubics, kernel):
        for name, fn in sorted(vars(module).items()):
            if not inspect.isfunction(fn) or fn.__annotations__.get("return") != "AlgEquation":
                continue
            if inspect.signature(fn).parameters:
                for mode in GFMode:
                    yield f"{name}({mode.value})", fn(mode)
            else:
                yield name, fn()


def _normal_form(polys):
    """Each coefficient as a tuple of ints in t, each polynomial without
    trailing zeros, so that Z and Z[t] equations compare."""
    out = []
    for p in polys:
        cs = [c.coeffs if isinstance(c, TPoly) else ((c,) if c else ()) for c in p]
        while cs and not cs[-1]:
            cs.pop()
        out.append(tuple(cs))
    return tuple(out)


def test_no_equation_is_written_twice():
    """Two transcriptions of one equation, or of its negation, check
    nothing against each other."""
    built = dict(_built_equations())
    assert {"marker_cubic", "avoidance_cubic", "kernel_equation(univariate)", "kernel_equation(bivariate)"} <= built.keys()
    forms = {label: _normal_form(eq.coeff_polys) for label, eq in built.items()}
    negated = {label: _normal_form([[-c for c in p] for p in eq.coeff_polys]) for label, eq in built.items()}
    for a in forms:
        for b in forms:
            assert forms[a] != negated[b], (a, b)
            assert a == b or forms[a] != forms[b], (a, b)


def test_transformed_cubic_catches_a_mistranscribed_kernel_cubic(monkeypatch):
    """A kernel cubic with its -z^4 utilde term doubled still has a root
    that satisfies it, so kernel-residual passes; transformed-cubic holds
    the level-0 series to the avoidance cubic and fails."""
    kernel_equation = kernel.kernel_equation

    def doubled_z4(mode):
        eq = kernel_equation(mode)
        polys = [list(p) for p in eq.coeff_polys]
        polys[1][4] *= 2
        return AlgEquation(polys, eq.ring)

    monkeypatch.setattr(kernel, "kernel_equation", doubled_z4)
    assert verify.check_kernel_residual().ok
    assert verify.check_transformed_cubic() == ("transformed-cubic", False, "at Z^1: residual -1")
