"""Holonomic descriptions of the half-length avoidance sequence.

The sequence s_n (paths of half-length n avoiding the pattern; OEIS
A128729) satisfies a 4th-order linear recurrence with polynomial
coefficients, and its generating function S(z) a 2nd-order linear ODE.
Neither is derived here; both are applied and verified exactly, so any
transcription error or wrong initial segment surfaces as a failed exact
division or a nonzero residual rather than drift.
"""

from __future__ import annotations

from collections.abc import Sequence

from .rings import QQ


class NonIntegralStep(Exception):
    """Exact division in the recurrence left a remainder."""

    def __init__(self, n: int, remainder: int):
        super().__init__(f"recurrence step at n={n} is not integral (remainder {remainder})")
        self.n = n
        self.remainder = remainder


def p0(n: int) -> int:
    return -44 * n * (n + 1)


def p1(n: int) -> int:
    return -2 * (n + 1) * (10 * n - 7)


def p2(n: int) -> int:
    return 3 * (115 + 106 * n + 23 * n * n)


def p3(n: int) -> int:
    return -32 * (n + 4) * (n + 3)


def p4(n: int) -> int:
    return 4 * (n + 5) * (n + 4)


RECURRENCE_ORDER = 4


def extend(initial: Sequence[int], n_max: int) -> list[int]:
    """Terms s_0..s_{n_max} from four initial terms.

    Each step divides exactly by p4(n) > 0; a nonzero remainder raises
    NonIntegralStep, which is how wrong initial terms announce
    themselves.
    """
    if len(initial) != RECURRENCE_ORDER:
        raise ValueError("exactly four initial terms required")
    if n_max < RECURRENCE_ORDER - 1:
        raise ValueError("n_max must be at least 3")
    s = [int(x) for x in initial]
    for n in range(n_max - RECURRENCE_ORDER + 1):
        num = -(p0(n) * s[n] + p1(n) * s[n + 1] + p2(n) * s[n + 2] + p3(n) * s[n + 3])
        q, r = divmod(num, p4(n))
        if r != 0:
            raise NonIntegralStep(n, r)
        s.append(q)
    return s


def recurrence_residual(seq: Sequence[int]) -> list[int]:
    """Exact residual of the recurrence at each applicable n."""
    if len(seq) < RECURRENCE_ORDER + 1:
        raise ValueError("need at least five terms")
    return [
        p0(n) * seq[n]
        + p1(n) * seq[n + 1]
        + p2(n) * seq[n + 2]
        + p3(n) * seq[n + 3]
        + p4(n) * seq[n + 4]
        for n in range(len(seq) - RECURRENCE_ORDER)
    ]


def ode_residual(s):
    """Apply the 2nd-order operator to a ZSeries and return the residual.

    The operator is  a0 + a1 S + b1 S' + b2 S''  with

        a0 = 31 z - 8
        a1 = -15 z
        b1 = -(2z - 1)(44 z^3 + 15 z^2 - 48 z + 8)
        b2 = -z (11 z^2 + 16 z - 4)(2z - 1)^2

    The factored coefficients are expanded by series multiplication
    rather than transcribed, and the residual is known modulo
    z^(order - 2) because of the two formal derivatives.
    """
    from .series import ZSeries  # imported here: asympt never builds a series

    if s.order < 5:
        raise ValueError("series order must be at least 5")
    n = s.order
    two_z_minus_1 = ZSeries([-1, 2], n, QQ)
    a0 = ZSeries([-8, 31], n, QQ)
    a1 = ZSeries([0, -15], n, QQ)
    b1 = -(two_z_minus_1 * ZSeries([8, -48, 15, 44], n, QQ))
    b2 = -(ZSeries([0, -4, 16, 11], n, QQ) * two_z_minus_1 * two_z_minus_1)
    ds = s.differentiate()
    dds = ds.differentiate()
    return a0 + a1 * s + b1 * ds + b2 * dds
