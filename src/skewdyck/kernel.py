"""Kernel root and level generating functions, as exact truncated series.

The level generating functions all live on the combinatorial branch u1
of the kernel polynomial

    -u^2 + z u^3 + 2 z u - u^2 z^2 - u z^3 - z^4        (avoidance)
    2 z u - z^4 - u^2 + t z^4 - u z^3 + z u^3 - u^2 z^2  (marker-refined)

u1 itself is a Laurent series (it starts at 1/z), so everything here is
normalized through utilde = z * u1, a genuine power series with constant
term 1.  Substituting u = utilde / z and clearing z powers turns the
kernel into a cubic in utilde:

    utilde^3 - (1 + z^2) utilde^2 + (2 z^2 - z^4) utilde - z^6 (1 - t)

with t = 0 in the univariate (avoidance) mode.  The branch with
utilde(0) = 1 is a simple root and is the one solved for; the other two
branches vanish at the origin with Puiseux behavior and are not
representable as power series.  The boundary constants and the level
series are then obtained purely by series arithmetic, with exact
valuation cancellations where a formula has a z power in front.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .rings import QQ, QT, TPoly
from .series import AlgEquation, ZSeries, divide, solve_algebraic


class GFMode(enum.Enum):
    UNIVARIATE = "univariate"
    BIVARIATE = "bivariate"


@dataclass(frozen=True)
class KernelRoot:
    utilde: ZSeries
    mode: GFMode


def kernel_equation(mode: GFMode) -> AlgEquation:
    """The cubic satisfied by utilde (see module docstring)."""
    if mode is GFMode.UNIVARIATE:
        return AlgEquation(
            [
                [0, 0, 0, 0, 0, 0, -1],  # -z^6
                [0, 0, 2, 0, -1],        # 2z^2 - z^4
                [-1, 0, -1],             # -(1 + z^2)
                [1],
            ],
            QQ,
        )
    t = TPoly((0, 1))
    return AlgEquation(
        [
            [0, 0, 0, 0, 0, 0, t - 1],  # -z^6 + t z^6
            [0, 0, 2, 0, -1],
            [-1, 0, -1],
            [TPoly(1)],
        ],
        QT,
    )


def _ring(mode: GFMode):
    return QQ if mode is GFMode.UNIVARIATE else QT


def kernel_root(order: int, mode: GFMode = GFMode.UNIVARIATE) -> KernelRoot:
    if order < 2:
        raise ValueError("order must be >= 2")
    utilde = solve_algebraic(kernel_equation(mode), 1, order)
    return KernelRoot(utilde, mode)


def kernel_residual(root: KernelRoot) -> ZSeries:
    """Residual of utilde in the cleared kernel; zero modulo z^order."""
    return kernel_equation(root.mode).apply(root.utilde)


def _poly(coeffs, order, ring):
    return ZSeries.from_poly(coeffs, order, ring)


def boundary_constants(order: int, mode: GFMode = GFMode.UNIVARIATE):
    """Level-0 constants g0, h0, k0 rewritten in utilde:

        g0 = z^2 / utilde
        h0 = (1 - z^2 - utilde) / utilde
        k0 = z^2 (1 - z^2 - utilde) / (utilde (utilde - z^2))        (univariate)
        k0 = (1 - z^2 - utilde)(t utilde + (1 - t) z^2)
             / (utilde (utilde + (t - 1) z^2))                       (bivariate)

    Every denominator has a unit constant term, so the divisions are
    plain series divisions.
    """
    ring = _ring(mode)
    work = order + 4  # headroom for the valuation-2 numerators
    ut = kernel_root(work, mode).utilde
    z2 = _poly([0, 0, 1], work, ring)
    one = ZSeries.one(work, ring)
    num = one - z2 - ut  # valuation 2
    g0 = divide(z2, ut)
    h0 = divide(num, ut)
    if mode is GFMode.UNIVARIATE:
        k0 = divide(num * z2, ut * (ut - z2))
    else:
        t = ZSeries.from_poly([TPoly((0, 1))], work, QT)
        k0 = divide(num * (t * ut + z2 - t * z2), ut * (ut + t * z2 - z2))
    return {
        "g0": g0.truncate(order),
        "h0": h0.truncate(order),
        "k0": k0.truncate(order),
    }


def level_gf(k: int, order: int, mode: GFMode = GFMode.UNIVARIATE) -> ZSeries:
    """Series of paths ending at level k: (1 - utilde) z^(k-2) / utilde^k.

    1 - utilde has valuation 2, so the z^-2 is an exact cancellation and
    the result is a power series with valuation >= k.  The root is
    computed with extra working order to absorb the bookkeeping.
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    ring = _ring(mode)
    keep = order - k  # coefficients of the quotient that survive the shift
    if keep < 1:
        return ZSeries.zero(order, ring)
    work = order + k + 4
    ut = kernel_root(work, mode).utilde
    base = divide(ZSeries.one(work, ring) - ut, _poly([0, 0, 1], work, ring)).truncate(keep)
    if k:
        base = divide(base, ut.truncate(keep) ** k)
    return base.shift(k)


def check_identity_total(order: int, mode: GFMode = GFMode.UNIVARIATE) -> bool:
    """1 + g0 + h0 + k0 == (1 - utilde) / z^2 as exact truncated series."""
    consts = boundary_constants(order, mode)
    ring = _ring(mode)
    lhs = ZSeries.one(order, ring) + consts["g0"] + consts["h0"] + consts["k0"]
    return lhs.agrees_with(level_gf(0, order, mode))
