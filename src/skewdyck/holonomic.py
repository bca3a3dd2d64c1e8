"""Holonomic description of the half-length avoidance sequence.

S(z), the generating function of s_n (OEIS A128729), satisfies the ODE
A0 + A1 S + B1 S' + B2 S'' = 0.  Its four polynomials, `ODE`, are the
one transcription here, checked against the avoidance cubic's and the
kernel's roots rather than derived; the rest is read off them.  A term
c z^i S^(k) puts c (m)_k s_m, a falling factorial, into the z^n row,
m = n - i + k.  Each row n relates s_{n-3}..s_{n+1}, with s_m = 0 for
m < 0: a 4th-order recurrence that `extend`, the one evaluator of the
rows, applies by exact division from row 0 on, so s_0 = 1, `INITIAL`,
is its only seed, and a wrong initial term or ODE coefficient fails a
division.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

# A0 = 31z - 8, A1 = -15z, B1 = -(2z - 1)(44z^3 + 15z^2 - 48z + 8) and
# B2 = -z(11z^2 + 16z - 4)(2z - 1)^2, as coefficients of z^0, z^1, ...
ODE = ((-8, 31), (0, -15), (8, -64, 111, 14, -88), (0, 4, -32, 69, -20, -44))
RECURRENCE_ORDER = 4
INITIAL = (1,)  # s_0: the empty path


class NonIntegralStep(Exception):
    """Exact division in the recurrence left a remainder."""

    def __init__(self, n: int, remainder: int):
        super().__init__(f"recurrence step at n={n} is not integral (remainder {remainder})")
        self.n = n
        self.remainder = remainder


def _row(n: int) -> dict[int, int]:
    """{m: coefficient of s_m} in the z^n row of A1 S + B1 S' + B2 S''."""
    row: dict[int, int] = {}
    for k, poly in enumerate(ODE[1:]):
        for i, c in enumerate(poly):
            m = n - i + k
            for r in range(k):
                c *= m - r
            row[m] = row.get(m, 0) + c
    return row


def step_polynomials() -> list[tuple[int, int, int]]:
    """(a, b, c) with p_j(n) = a + b n + c n^2 the coefficient of s_{n+j} in
    row n + 3, j = 0..4: the quadratic through its values at n = 0, 1, 2."""
    rows = [_row(n + 3) for n in range(3)]
    if any(c for n, row in enumerate(rows) for m, c in row.items() if not n <= m <= n + RECURRENCE_ORDER):
        raise ValueError("the ODE's rows are not a recurrence of order 4")  # B2 must vanish at z = 0
    ps = []
    for j in range(RECURRENCE_ORDER + 1):
        v0, v1, v2 = (rows[n].get(n + j, 0) for n in range(3))
        c = (v2 - 2 * v1 + v0) // 2
        ps.append((v0, v1 - v0 - c, c))
    return ps


def extend(initial: Sequence[int], n_max: int) -> list[int]:
    """Terms s_0..s_{n_max} continuing the nonempty prefix `initial`.  Row n + 3
    gives s_{n+4} by exact division by p_4(n) = 4 (n + 4)(n + 5) > 0; a nonzero
    remainder raises NonIntegralStep, which is how wrong initial terms announce themselves."""
    s = [0, 0, 0, *map(operator.index, initial)]  # s_{-3}, s_{-2}, s_{-1}, s_0, ...
    if len(s) == 3:
        raise ValueError("at least one initial term required")
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4) = step_polynomials()
    inhomogeneous, rows = ODE[0], len(ODE[0]) - 3  # A0 reaches rows 0 and 1
    for n in range(len(s) - 7, n_max - 3):
        num = (a0 + (b0 + c0 * n) * n) * s[n + 3] + (a1 + (b1 + c1 * n) * n) * s[n + 4]
        num += (a2 + (b2 + c2 * n) * n) * s[n + 5] + (a3 + (b3 + c3 * n) * n) * s[n + 6]
        if n < rows:
            num += inhomogeneous[n + 3]
        q, r = divmod(-num, a4 + (b4 + c4 * n) * n)
        if r != 0:
            raise NonIntegralStep(n, r)
        s.append(q)
    return s[3 : n_max + 4]

