"""Each route solves its cubic once per process (series.solve_once).

A kept root serves smaller orders as truncations.  Every served root is
checked against a cold solve_algebraic of a freshly built equation, in
every request order, so that no comparison between routes can become a
comparison of one cached object with itself.
"""

import pytest

from skewdyck import series, verify
from skewdyck.cubics import avoidance_cubic, avoidance_series, marker_cubic, marker_series
from skewdyck.kernel import GFMode, kernel_equation, kernel_root
from skewdyck.rings import QQ, QT
from skewdyck.series import AlgEquation, solve_algebraic

# route -> (served root at an order, fresh equation builder, ring)
ROUTES = {
    "kernel-univariate": (lambda n: kernel_root(n, GFMode.UNIVARIATE), lambda: kernel_equation(GFMode.UNIVARIATE), QQ),
    "kernel-bivariate": (lambda n: kernel_root(n, GFMode.BIVARIATE), lambda: kernel_equation(GFMode.BIVARIATE), QT),
    "avoidance": (avoidance_series, avoidance_cubic, QQ),
    "marker": (marker_series, marker_cubic, QT),
}

REQUESTS = {
    "ascending": [1, 2, 3, 8, 13, 31],
    "descending": [31, 13, 8, 3, 2, 1],
    "interleaved": [8, 2, 31, 1, 3, 40, 13, 31, 8],
}


@pytest.mark.parametrize("requests", REQUESTS.values(), ids=REQUESTS.keys())
@pytest.mark.parametrize("route", ROUTES)
def test_served_root_equals_a_cold_solve(route, requests):
    served, equation, ring = ROUTES[route]
    for order in requests:
        got = served(order)
        want = solve_algebraic(equation(), 1, order)
        assert got.ring is ring
        assert got == want, (route, order)


@pytest.mark.parametrize("route", ROUTES)
def test_orders_below_two_match_a_cold_solve(route):
    served, equation, _ = ROUTES[route]
    served(20)
    for order in (1, 0):
        assert served(order) == solve_algebraic(equation(), 1, order)


def _recording_solver(monkeypatch):
    """Replace series.solve_algebraic by a wrapper that records, per call,
    the cubic (by its coefficients) and the order."""
    solves = []
    cold = series.solve_algebraic

    def recording(eq, s0, order, *rest):
        solves.append((repr(eq.coeff_polys), order))
        return cold(eq, s0, order, *rest)

    monkeypatch.setattr(series, "solve_algebraic", recording)
    return solves


def test_a_kept_root_is_not_solved_again(monkeypatch):
    solves = _recording_solver(monkeypatch)
    avoidance_series(50)
    for order in (50, 49, 7, 1):
        avoidance_series(order)
    kernel_root(30, GFMode.BIVARIATE)
    kernel_root(30, GFMode.UNIVARIATE)
    kernel_root(12, GFMode.BIVARIATE)
    assert [order for _, order in solves] == [50, 30, 30]


def test_verify_solves_each_cubic_once_per_rise_in_order(monkeypatch):
    solves = _recording_solver(monkeypatch)
    assert all(r.ok for r in verify.run_all(14))
    assert len(solves) <= 8  # 30 before each route kept its root
    highest = {}
    for cubic, order in solves:
        assert order > highest.get(cubic, 0), f"order {order} was already covered"
        highest[cubic] = order
    assert len(highest) == 4  # both kernel modes, the avoidance and the marker cubic


def test_solver_and_equation_builders_stay_cold(monkeypatch):
    """The layer benchmark times solve_algebraic(avoidance_cubic(), 1, N) in
    a loop: each call must build and solve afresh."""
    assert avoidance_cubic() is not avoidance_cubic()
    assert kernel_equation(GFMode.BIVARIATE) is not kernel_equation(GFMode.BIVARIATE)
    residuals = []
    apply = AlgEquation.apply
    monkeypatch.setattr(AlgEquation, "apply", lambda self, s: residuals.append(s.order) or apply(self, s))
    eq = avoidance_cubic()
    solve_algebraic(eq, 1, 100)
    once = len(residuals)
    solve_algebraic(eq, 1, 100)
    assert once > 0 and len(residuals) == 2 * once
    avoidance_series(100)
    avoidance_series(100)
    assert len(residuals) == 3 * once
