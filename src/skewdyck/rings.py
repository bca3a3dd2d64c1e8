"""Exact coefficient rings used by the truncated series engine.

Two rings are supported: the integers Z, as plain Python ints, and dense
polynomials in the occurrence marker ``t`` with integer coefficients,
Z[t].  The ring objects keep their historical names ``QQ`` and ``QT``.

No rationals are needed: the series engine divides only by units, +1
or -1 (the rule is stated in `skewdyck.series`).  Rational values of t
enter only at the CLI, when a finished Z[t] coefficient is evaluated
for output.
"""

from __future__ import annotations

from operator import add


class TPoly:
    """Dense polynomial in the marker variable t, trailing zeros stripped.

    The coefficient of t^j counts objects carrying exactly j marked
    occurrences, so in counting contexts every coefficient is a
    nonnegative integer.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    @classmethod
    def _raw(cls, coeffs: tuple) -> "TPoly":
        """Internal constructor for an already stripped tuple of ints."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    # With a zero operand, + and * return an operand: TPoly is immutable.

    def __neg__(self) -> "TPoly":
        return TPoly._raw(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            if not other:
                return self
            other = TPoly(other)
        elif not isinstance(other, TPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        return TPoly(tuple(map(add, a, b)) + a[len(b) :])

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = TPoly(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return TPoly._raw(())
            return TPoly._raw(tuple(c * other for c in self.coeffs))
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self.coeffs:
            return self
        if not other.coeffs:
            return other
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return TPoly._raw(tuple(out))  # leading coefficients are nonzero

    __rmul__ = __mul__

    def __call__(self, t_value):
        """Evaluate at a scalar t value (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t_value + c
        return acc

    def __repr__(self) -> str:
        return f"TPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{j}" if c == 1 else f"{c}*t^{j}")
        return " + ".join(parts)


T = TPoly((0, 1))


def _to_int(x) -> int:
    """An int, or an integral Fraction converted to one."""
    if isinstance(x, int):
        return x
    # Imported here: whoever made a Fraction has loaded fractions already,
    # and the integer engine never needs it.
    from fractions import Fraction

    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"{x} is not an integer")
        return x.numerator
    raise TypeError(f"cannot coerce {x!r} into Z")


class IntegerRing:
    """Coefficient ring of exact integers; the units are +1 and -1."""

    name = "Z"
    zero = 0
    one = 1

    def coerce(self, x) -> int:
        return _to_int(x)

    def is_unit(self, x) -> bool:
        return x == 1 or x == -1

    def divexact(self, x, d):
        """x / d if d divides x exactly, else None."""
        q, r = divmod(x, d)
        return None if r else q


class TPolyRing:
    """Coefficient ring of marker polynomials with integer coefficients."""

    name = "Z[t]"
    zero = TPoly()
    one = TPoly(1)

    def coerce(self, x) -> TPoly:
        if isinstance(x, TPoly):
            return TPoly(tuple(map(_to_int, x.coeffs)))
        return TPoly(_to_int(x))

    def is_unit(self, x) -> bool:
        return x.degree == 0 and x.coeffs[0] in (1, -1)

    def divexact(self, x, d):
        """x / d for a nonzero int d (kernel.inverse_power) if d divides
        every coefficient exactly, else None."""
        out = []
        for c in x.coeffs:
            q, r = divmod(c, d)
            if r:
                return None
            out.append(q)
        return TPoly._raw(tuple(out))


QQ = IntegerRing()
QT = TPolyRing()
