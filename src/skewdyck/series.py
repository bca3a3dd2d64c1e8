"""Truncated formal power series in z with coefficients in Z or Z[t].

A series keeps N coefficients and is known modulo z^N: its truncation
order is the length of its tuple.  Arithmetic never reads beyond the
order, and binary operations return the minimum of the input orders, so
precision loss is always visible in the result type.  Algebraic
equations P(z, S) = 0 with a simple root at the origin are solved by
Newton iteration.

Coefficients stay in Z or Z[t] throughout, because every divisor has
constant term +1 or -1, its own inverse: `divide` raises
DivisionByNonUnit for any other, and the Newton solver requires
dP/dS = +1 or -1 at the origin, so each correction is such a division.
That holds for everything this package solves and divides: dP/dS is 1
at the origin for the avoidance, marker and kernel cubics, and the
kernel-method divisors (utilde and its products with utilde - z^2 or
utilde + (t - 1) z^2) have constant term 1.
"""

from __future__ import annotations

from operator import add, mul

from .rings import QQ, QT, TPoly


class SeriesError(Exception):
    pass


class RingMismatch(SeriesError):
    pass


class DivisionByNonUnit(SeriesError):
    pass


class NotARoot(SeriesError):
    pass


class SingularRoot(SeriesError):
    pass


class ZSeries:
    """Power series known modulo z^order, coefficients in a fixed ring."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, order, ring):
        if order < 1:
            raise ValueError("truncation order must be >= 1")
        cs = [ring.coerce(c) for c in coeffs[:order]]
        cs.extend(ring.zero for _ in range(order - len(cs)))
        self.coeffs = tuple(cs)
        self.ring = ring

    @classmethod
    def _raw(cls, coeffs: tuple, ring) -> "ZSeries":
        """Internal constructor: `coeffs` is a tuple of elements of `ring`."""
        s = cls.__new__(cls)
        s.coeffs = coeffs
        s.ring = ring
        return s

    @property
    def order(self) -> int:
        """The truncation order N: the series is known modulo z^N."""
        return len(self.coeffs)

    # -- basics -------------------------------------------------------

    def valuation(self):
        """Index of the first nonzero coefficient, or None if zero mod z^N."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def _check(self, other: "ZSeries"):
        if self.ring is not other.ring:
            raise RingMismatch(f"{self.ring.name} vs {other.ring.name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    # -- ring operations ----------------------------------------------

    def __neg__(self):
        return ZSeries._raw(tuple(-c for c in self.coeffs), self.ring)

    def __add__(self, other):
        if not isinstance(other, ZSeries):
            other = ZSeries((other,), self.order, self.ring)
        self._check(other)
        # map stops at the shorter tuple: the minimum of the two orders
        return ZSeries._raw(tuple(map(add, self.coeffs, other.coeffs)), self.ring)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, ZSeries):
            scalar = self.ring.coerce(other)
            return ZSeries._raw(tuple(c * scalar for c in self.coeffs), self.ring)
        self._check(other)
        n = min(self.order, other.order)
        b = other.coeffs
        out = [self.ring.zero] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] = out[i + j] + a * b[j]
        return ZSeries._raw(tuple(out), self.ring)

    __rmul__ = __mul__

    def inverse(self) -> "ZSeries":
        """1 / self, by `divide`.  No route in the package calls this; it is
        kept because the benchmark's layer timings (bench/layers.py) and
        tracer (bench/tracer.py) time it by name."""
        return divide(ZSeries((self.ring.one,), self.order, self.ring), self)

    # -- shape operations ---------------------------------------------

    def truncate(self, order: int) -> "ZSeries":
        if order > self.order:
            raise ValueError("cannot extend a series by truncation")
        return ZSeries._raw(self.coeffs[:order], self.ring)

    def shift(self, k: int) -> "ZSeries":
        """Multiply by z^k; the result is known modulo z^(order + k)."""
        if k < 0:
            raise ValueError("negative shift")
        zero = self.ring.zero
        return ZSeries._raw((zero,) * k + self.coeffs, self.ring)

    def compress_even(self) -> "ZSeries":
        """Substitute z^2 -> z; every odd coefficient must vanish."""
        for i in range(1, self.order, 2):
            if self.coeffs[i]:
                raise SeriesError(f"odd coefficient z^{i} is nonzero")
        return ZSeries._raw(self.coeffs[0::2], self.ring)

    # -- output -------------------------------------------------------

    def integer_coefficients(self):
        """Coefficients as a list of ints (or TPolys over the ints).

        A type guard: the engine never leaves Z or Z[t], so anything
        else here is a bug and raises SeriesError.
        """
        for c in self.coeffs:
            for x in c.coeffs if isinstance(c, TPoly) else (c,):
                if type(x) is not int:
                    raise SeriesError(f"coefficient {x!r} is not an int")
        return list(self.coeffs)


def divide(a: ZSeries, b: ZSeries) -> ZSeries:
    """a / b, exact in the coefficient ring.

    The constant term b0 of b must be +1 or -1, its own inverse, and one
    pass gives q_k = b0 (a_k - sum_{j=1..k} b_j q_{k-j}).
    """
    a._check(b)
    ring = a.ring
    b0 = b.coeffs[0]
    if b0 not in (ring.one, -ring.one):
        raise DivisionByNonUnit(f"leading coefficient {b0} is not +1 or -1")
    negate = b0 != ring.one
    n = min(a.order, b.order)
    num, den = a.coeffs, b.coeffs[1:n]
    q = []
    for k in range(n):
        r = num[k] - sum(map(mul, den[:k], reversed(q)), ring.zero)
        q.append(-r if negate else r)
    return ZSeries._raw(tuple(q), ring)


class AlgEquation:
    """Polynomial equation sum_i c_i(z) S^i = 0 with exact z-polynomial
    coefficients; c_d must not be identically zero."""

    __slots__ = ("coeff_polys", "ring")

    def __init__(self, coeff_polys, ring):
        polys = [tuple(ring.coerce(c) for c in p) for p in coeff_polys]
        if not polys or all(c == ring.zero for c in polys[-1]):
            raise ValueError("leading coefficient is identically zero")
        self.coeff_polys = tuple(polys)
        self.ring = ring

    @property
    def degree(self) -> int:
        return len(self.coeff_polys) - 1

    def apply(self, s: ZSeries) -> ZSeries:
        """Residual sum_i c_i(z) s^i, truncated at s.order (Horner in S)."""
        if s.ring is not self.ring:
            raise RingMismatch(f"{s.ring.name} vs {self.ring.name}")
        polys = self.coeff_polys
        acc = ZSeries(polys[-1], s.order, self.ring)
        for p in reversed(polys[:-1]):
            acc = acc * s + ZSeries(p, s.order, self.ring)
        return acc

    def derivative(self) -> "AlgEquation":
        """Formal derivative with respect to S, which must occur in the
        equation: dP/dS = 0 has no nonzero leading coefficient."""
        if not self.degree:
            raise ValueError("S does not occur in the equation, so dP/dS is 0")
        polys = [
            tuple(c * i for c in p)
            for i, p in enumerate(self.coeff_polys)
            if i >= 1
        ]
        return AlgEquation(polys, self.ring)

    def evaluate_t(self, t_value) -> "AlgEquation":
        """Evaluate marker-polynomial coefficients at an integer t, giving
        the equation over Z (the t = 0 cubics are derived this way)."""
        if self.ring is not QT:
            raise RingMismatch("evaluate_t requires the Z[t] coefficient ring")
        t_value = QQ.coerce(t_value)
        return AlgEquation([[c(t_value) for c in p] for p in self.coeff_polys], QQ)


def solve_algebraic(eq: AlgEquation, s0, order: int, schedule: str = "doubling") -> ZSeries:
    """Unique series root with constant term s0, by Newton iteration.

    The root must be simple at the origin, with dP/dS(0, s0) = +1 or -1.
    schedule="doubling" at most doubles the working order each step,
    stepping up through the target N halved and rounded up again and
    again (..., ceil(N/4), ceil(N/2), N): no step works past N, where
    1, 2, 4, ... would pay two near-full-order steps for N just above a
    power of two.  schedule="linear" raises the order by one.  Both must
    produce identical coefficients.

    A step from order k to order T pads s with zeros to order T.  The
    residual P(s) then vanishes below z^k, so the correction
    -P(s) / P'(s) is z^k times a series needed only mod z^(T-k): P'(s)
    is formed at that half precision, and only the top T-k residual
    coefficients are divided by it (Brent and Kung, 1978).
    """
    if schedule not in ("doubling", "linear"):
        raise ValueError(f"unknown schedule {schedule!r}")
    ring = eq.ring
    s0 = ring.coerce(s0)
    s = ZSeries._raw((s0,), ring)
    value = eq.apply(s).coeffs[0]
    if value:
        raise NotARoot(f"P(0, {s0!r}) = {value!r} != 0")
    deq = eq.derivative()
    slope = deq.apply(s).coeffs[0]
    if slope not in (ring.one, -ring.one):
        raise SingularRoot(f"dP/dS(0, {s0!r}) = {slope!r} is not +1 or -1")
    if schedule == "linear":
        targets = range(2, order + 1)
    else:
        targets = []
        while order > 1:
            targets.append(order)
            order = (order + 1) // 2
        targets.reverse()
    for target in targets:
        k = s.order
        h = target - k
        s = ZSeries._raw(s.coeffs + (ring.zero,) * h, ring)
        top = ZSeries._raw(eq.apply(s).coeffs[k:], ring)
        step = divide(top, deq.apply(s.truncate(h)))
        s = ZSeries._raw(s.coeffs[:k] + tuple(-c for c in step.coeffs), ring)
    return s


_ROOTS = {}  # route key -> the longest root solved in this process


def solve_once(key, equation, order: int) -> ZSeries:
    """The root with constant term 1 of `equation()` mod z^order, served
    as a truncation of the longest root kept under `key` (the root mod
    z^N is unique), or solved afresh and kept when that one is shorter."""
    order = max(order, 1)  # solve_algebraic returns its order-1 seed for any order <= 1
    root = _ROOTS.get(key)
    if root is None or root.order < order:
        root = _ROOTS[key] = solve_algebraic(equation(), 1, order)
    return root if root.order == order else root.truncate(order)
