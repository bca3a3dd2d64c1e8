"""The algebraic equations satisfied by the half-length series.

S(z) counts paths by half-length with the pattern forbidden (A128729);
R(z, t) refines it by the marker (A128728).  Only the marker cubic is
written out; the avoidance cubic is derived from it at t = 0, not
transcribed a second time.  The kernel's level-0 series with z^2 -> z
satisfies the avoidance cubic too (verify's transformed-cubic check),
which ties this transcription to the kernel cubic in `kernel`.

avoidance_series and marker_series each solve their cubic once per
process (series.solve_once): the longest series solved so far is kept,
and a smaller order is its truncation.  The equation builders are not
cached, so solve_algebraic(avoidance_cubic(), 1, N) is always a cold
solve.
"""

from __future__ import annotations

from .rings import QT, T
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


def avoidance_series(order: int) -> ZSeries:
    """Half-length avoidance series 1, 1, 2, 6, 20, 71, ..."""
    return solve_once("avoidance", avoidance_cubic, order)


def marker_series(order: int) -> ZSeries:
    """Half-length marker-refined series with TPoly coefficients."""
    return solve_once("marker", marker_cubic, order)
