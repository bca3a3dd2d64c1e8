"""Singularity-analysis constants and the leading coefficient estimate.

The half-length avoidance series has a square-root singularity at

    z0 = (2/11)(3 sqrt 3 - 4),   S(z0) = 1 + sqrt(3)/2,

which gives the leading-order estimate

    s_n ~ sqrt(2 + 8 sqrt(3)/9) / (2 sqrt(pi)) * (1/z0)^n * n^(-3/2).

Everything numeric here runs in log space: s_1600 has hundreds of
digits, and growth^n overflows a double near n = 460.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


class MissingCoefficient(Exception):
    """Requested index beyond the supplied exact coefficients."""


SQRT3 = math.sqrt(3.0)
GROWTH = 2.0 + 1.5 * SQRT3  # 1 / z0; 1 / ((2/11)(3 sqrt 3 - 4)) rounds one ulp lower
AMPLITUDE = math.sqrt(2.0 + 8.0 * SQRT3 / 9.0) / (2.0 * math.sqrt(math.pi))
# Half-lengths that `asympt` reports by default and `verify` samples.
SAMPLE_NS = (50, 100, 200, 400, 800, 1600)


def dominant_singularity_numeric() -> float:
    """z0 by bisection on [0.1, 0.3], re-derived from the avoidance cubic
    (cubics.avoidance_cubic, the one the series solver uses) to check the
    estimates' 1 / GROWTH: the S-derivative of the cubic vanishes along
    S = (z + 1)/(3 z), and z0 is where the cubic itself vanishes there."""
    from . import cubics  # imported here: asympt never solves a cubic

    polys = cubics.avoidance_cubic().coeff_polys

    def g(z: float) -> float:
        s = (z + 1.0) / (3.0 * z)
        return sum(sum(c * z**j for j, c in enumerate(p)) * s**i for i, p in enumerate(polys))

    lo, hi = 0.1, 0.3
    flo = g(lo)
    if flo * g(hi) > 0:
        raise ValueError("no sign change on the bisection bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = g(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
        if hi - lo < 1e-16:
            break
    return 0.5 * (lo + hi)


def log_estimate(n: int) -> float:
    """Natural log of the leading-order estimate for s_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.log(AMPLITUDE) + n * math.log(GROWTH) - 1.5 * math.log(n)


def coefficient_ratio(n: int, coefficients: Sequence[int]) -> float:
    """s_n over the estimate, computed as exp(log s_n - log estimate).

    math.log on a big int is exact to double precision, so the ratio is
    meaningful even when both sides overflow a double.
    """
    if n >= len(coefficients):
        raise MissingCoefficient(f"coefficient s_{n} not available (have {len(coefficients)})")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(math.log(coefficients[n]) - log_estimate(n))


def convergence_report(
    n_values: Sequence[int],
    coefficients: Sequence[int],
) -> list[tuple[int, int, float | None, float]]:
    """Rows (n, s_n, estimate or None past double range, ratio)."""
    rows = []
    for n in n_values:
        ratio = coefficient_ratio(n, coefficients)
        try:
            est = math.exp(log_estimate(n))
        except OverflowError:
            est = None
        rows.append((n, coefficients[n], est, ratio))
    return rows
