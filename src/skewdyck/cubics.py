"""The algebraic equations satisfied by the half-length series.

S(z) counts paths by half-length with the pattern forbidden (A128729);
R(z, t) refines it by the marker (A128728).  Only the marker cubic is
written out; the avoidance cubic is derived from it at t = 0, not
transcribed a second time.  The transformed cubic in U is the same
object reached through the substitution chain from the kernel root,
with Z standing for z^2; the half-length series must satisfy it as
well.

avoidance_series and marker_series each solve their cubic once per
process (series.solve_once): the longest series solved so far is kept,
and a smaller order is its truncation.  The equation builders are not
cached, so solve_algebraic(avoidance_cubic(), 1, N) is always a cold
solve.
"""

from __future__ import annotations

from .rings import QQ, QT, T
from .series import AlgEquation, ZSeries, solve_once


def marker_cubic() -> AlgEquation:
    """z^2 R^3 - z(2 - z) R^2 + (1 - z^2) R - 1 + z + (1 - t) z^2 = 0."""
    return AlgEquation(
        [
            [-1, 1, 1 - T],
            [1, 0, -1],
            [0, -2, 1],
            [0, 0, 1],
        ],
        QT,
    )


def avoidance_cubic() -> AlgEquation:
    """z^2 S^3 - z(2 - z) S^2 + (1 - z^2) S - 1 + z + z^2 = 0: the marker
    cubic at t = 0."""
    return marker_cubic().evaluate_t(0)


def transformed_cubic() -> AlgEquation:
    """2 Z U^2 - U - Z^2 U^3 + 1 - Z^2 U^2 + Z^2 U - Z - Z^2 = 0,
    arranged by powers of U (the variable is Z)."""
    return AlgEquation(
        [
            [1, -1, -1],
            [-1, 0, 1],
            [0, 2, -1],
            [0, 0, -1],
        ],
        QQ,
    )


def avoidance_series(order: int) -> ZSeries:
    """Half-length avoidance series 1, 1, 2, 6, 20, 71, ..."""
    return solve_once("avoidance", avoidance_cubic, order)


def marker_series(order: int) -> ZSeries:
    """Half-length marker-refined series with TPoly coefficients."""
    return solve_once("marker", marker_cubic, order)
