"""Kernel root and level generating functions, as exact truncated series.

The level generating functions all live on the combinatorial branch u1
of the marker-refined kernel polynomial

    2 z u - z^4 - u^2 + t z^4 - u z^3 + z u^3 - u^2 z^2

u1 itself is a Laurent series (it starts at 1/z), so everything here is
normalized through utilde = z * u1, a genuine power series with constant
term 1.  Substituting u = utilde / z and clearing z powers turns the
kernel into a cubic in utilde:

    utilde^3 - (1 + z^2) utilde^2 + (2 z^2 - z^4) utilde - z^6 (1 - t)

Only this Z[t] cubic is written out.  The univariate (avoidance) mode is
its specialisation at t = 0, derived by AlgEquation.evaluate_t rather
than transcribed, and the boundary constants use one formula in which t
is the ring scalar 0 or t.  The branch with utilde(0) = 1 is a simple
root and is the one solved for; the other two branches vanish at the
origin with Puiseux behavior and are not representable as power series.
The boundary constants and the level series are then obtained purely by
series arithmetic, with exact valuation cancellations where a formula
has a z power in front.

kernel_root solves the cubic once per process and mode
(series.solve_once): the longest root solved so far is kept, and every
smaller order is its truncation, so the boundary constants and all the
level series of one process share one Newton solve per mode.
"""

from __future__ import annotations

import enum

from .rings import QT, T
from .series import AlgEquation, DivisionByNonUnit, ZSeries, divide, solve_once


class GFMode(enum.Enum):
    UNIVARIATE = "univariate"  # t = 0: the pattern forbidden, over Z
    BIVARIATE = "bivariate"  # occurrences marked by t, over Z[t]


def kernel_equation(mode: GFMode) -> AlgEquation:
    """The cubic satisfied by utilde (see module docstring)."""
    eq = AlgEquation(
        [
            [0, 0, 0, 0, 0, 0, T - 1],  # -z^6 (1 - t)
            [0, 0, 2, 0, -1],  # 2z^2 - z^4
            [-1, 0, -1],  # -(1 + z^2)
            [1],
        ],
        QT,
    )
    return eq.evaluate_t(0) if mode is GFMode.UNIVARIATE else eq


def kernel_root(order: int, mode: GFMode) -> ZSeries:
    """utilde modulo z^order, the root of the kernel cubic with constant term 1."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return solve_once(("kernel", mode), lambda: kernel_equation(mode), order)


def boundary_constants(order: int, mode: GFMode):
    """Level-0 constants g0, h0, k0 rewritten in utilde:

        g0 = z^2 / utilde
        h0 = (1 - z^2 - utilde) / utilde
        k0 = (1 - z^2 - utilde)(t utilde + (1 - t) z^2)
             / (utilde (utilde + (t - 1) z^2))

    with t = 0 in the univariate mode, where k0 reduces to
    z^2 (1 - z^2 - utilde) / (utilde (utilde - z^2)).  Every denominator
    has a unit constant term, so the divisions are plain series
    divisions.
    """
    work = max(order, 2)  # kernel_root needs order >= 2
    ut = kernel_root(work, mode)
    t = 0 if mode is GFMode.UNIVARIATE else T
    z2 = ZSeries([0, 0, 1], work, ut.ring)
    num = 1 - z2 - ut  # valuation 2
    g0 = divide(z2, ut)
    h0 = divide(num, ut)
    k0 = divide(num * (t * ut + (1 - t) * z2), ut * (ut + (t - 1) * z2))
    return {
        "g0": g0.truncate(order),
        "h0": h0.truncate(order),
        "k0": k0.truncate(order),
    }


def inverse_power(s: ZSeries, k: int) -> ZSeries:
    """s^(-k) for a series s with constant term 1, by J. C. P. Miller's
    power recurrence (Knuth, TAOCP vol. 2, 4.7): g = s^a satisfies
    s g' = a s' g, so with s_0 = 1

        n g_n = sum_{j=1..n} ((a + 1) j - n) s_j g_{n-j},   a = -k,

    O(N^2) ring operations for any k.  Each step divides exactly by n;
    an inexact step raises DivisionByNonUnit.
    """
    ring = s.ring
    f = s.coeffs
    if f[0] != ring.one:
        raise DivisionByNonUnit("constant term is not 1")
    g = [ring.one]
    for n in range(1, s.order):
        acc = ring.zero
        for j in range(1, n + 1):
            c = (1 - k) * j - n
            if c and f[j] and g[n - j]:
                acc = acc + f[j] * c * g[n - j]
        gn = ring.divexact(acc, n)
        if gn is None:
            raise DivisionByNonUnit(f"{acc} is not divisible by {n} at z^{n}")
        g.append(gn)
    return ZSeries._raw(tuple(g), s.order, ring)


def level_gf(k: int, order: int, mode: GFMode) -> ZSeries:
    """Series of paths ending at level k: (1 - utilde) z^(k-2) / utilde^k.

    1 - utilde has valuation 2, so the z^-2 is an exact cancellation and
    the result is a power series with valuation >= k.  Only the first
    order - k coefficients of the quotient survive the shift by z^k, so
    the root is needed only modulo z^(order - k + 2).  For k >= 2,
    utilde^(-k) comes from Miller's power recurrence (inverse_power).
    """
    if k < 0:
        raise ValueError("level must be nonnegative")
    keep = order - k  # coefficients of the quotient that survive the shift
    if keep < 1:
        return ZSeries((), order, kernel_equation(mode).ring)
    ut = kernel_root(keep + 2, mode)
    base = divide(1 - ut, ZSeries([0, 0, 1], keep + 2, ut.ring))
    if k == 1:  # one division costs half the recurrence and its product
        base = divide(base, ut.truncate(keep))
    elif k:
        base = base * inverse_power(ut.truncate(keep), k)
    return base.shift(k)


def identity_total(order: int, mode: GFMode) -> tuple[ZSeries, ZSeries]:
    """Both sides of 1 + g0 + h0 + k0 == (1 - utilde) / z^2, the level-0
    series, as exact truncated series; they agree when the boundary
    constants are right."""
    consts = boundary_constants(order, mode)
    return 1 + consts["g0"] + consts["h0"] + consts["k0"], level_gf(0, order, mode)
