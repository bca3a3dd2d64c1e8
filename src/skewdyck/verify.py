"""Cross-verification suite: every computational route against every other.

Each check compares two independently computed objects (brute force,
automaton, kernel series, algebraic solver, recurrence, ODE,
asymptotics, vendored golden values) and returns a pass/fail record.
The CLI `verify` subcommand runs them in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from . import asymptotics, automaton, cubics, golden, holonomic, kernel, paths
from .rings import TPoly


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _histogram_poly(counter) -> TPoly:
    if not counter:
        return TPoly()
    coeffs = [0] * (max(counter) + 1)
    for j, c in counter.items():
        coeffs[j] = c
    return TPoly(coeffs)


def check_dp_vs_oracle(depth: int) -> CheckResult:
    """Automaton marker polynomials equal brute-force histograms for all
    lengths up to `depth` and all end levels, in one walk."""
    hist = paths.udr_profile(depth)
    for m, state in enumerate(automaton.walk(depth)):
        got = automaton.by_level(state)
        for k in sorted(got.keys() | hist[m].keys()):
            dp, oracle = got.get(k, TPoly()), _histogram_poly(hist[m].get(k))
            if dp != oracle:
                return CheckResult(
                    "dp-vs-oracle", False, f"mismatch at length {m} level {k}: automaton {dp} vs oracle {oracle}"
                )
    return CheckResult("dp-vs-oracle", True, f"all lengths <= {depth}")


def check_kernel_residual() -> CheckResult:
    for mode in kernel.GFMode:
        utilde = kernel.kernel_root(64, mode)
        if not kernel.kernel_equation(mode).apply(utilde).is_zero():
            return CheckResult("kernel-residual", False, f"nonzero residual in {mode.value} mode")
    return CheckResult("kernel-residual", True, "both modes, mod z^64")


def check_kernel_root_display() -> CheckResult:
    want = golden.utilde_display()
    got = kernel.kernel_root(len(want), kernel.GFMode.UNIVARIATE).integer_coefficients()
    ok = got == want
    return CheckResult("kernel-root-display", ok, "" if ok else f"got {got}")


def check_series_vs_golden() -> CheckResult:
    want = golden.a128729_terms()
    got = cubics.avoidance_series(len(want)).integer_coefficients()
    if got != want:
        return CheckResult("series-vs-golden", False, f"solver {got[:10]}... vs golden")
    display = golden.level0_display()
    if got[: len(display)] != display:
        return CheckResult("series-vs-golden", False, "display mismatch")
    return CheckResult("series-vs-golden", True, f"{len(want)} terms")


def check_bivariate_vs_golden() -> CheckResult:
    rows = golden.a128728_rows()
    series = cubics.marker_series(len(rows)).integer_coefficients()
    got = [list(c.coeffs) if c.coeffs else [0] for c in series]
    want = [r for r in rows]
    ok = got == want and got[:7] == golden.bivariate_display_rows()
    return CheckResult("bivariate-vs-golden", ok, "" if ok else f"got {got}")


def check_level_gfs() -> CheckResult:
    """Kernel-method level series against one walk of the automaton,
    marker-tracked and with the pattern forbidden (t = 0)."""
    levels = range(7)
    track = [kernel.level_gf(k, 17, kernel.GFMode.BIVARIATE) for k in levels]
    forbid = [kernel.level_gf(k, 17, kernel.GFMode.UNIVARIATE) for k in levels]
    for m, state in enumerate(automaton.walk(16)):
        by_level = automaton.by_level(state)
        for k in levels:
            want = by_level.get(k, TPoly())
            got = track[k].coefficient(m)
            if got != want:
                return CheckResult("level-gf-vs-dp", False, f"k={k} m={m}: kernel {got} vs automaton {want}")
            got = forbid[k].coefficient(m)
            if got != want(0):
                return CheckResult(
                    "level-gf-vs-dp", False, f"forbid k={k} m={m}: kernel {got} vs automaton {want(0)}"
                )
    return CheckResult("level-gf-vs-dp", True, "k <= 6, m <= 16")


def check_half_length_collapse() -> CheckResult:
    lvl0 = kernel.level_gf(0, 48, kernel.GFMode.UNIVARIATE).compress_even()
    if not lvl0.agrees_with(cubics.avoidance_series(24)):
        return CheckResult("half-length-collapse", False, "avoidance series mismatch")
    lvl0t = kernel.level_gf(0, 48, kernel.GFMode.BIVARIATE).compress_even()
    if not lvl0t.agrees_with(cubics.marker_series(24)):
        return CheckResult("half-length-collapse", False, "marker series mismatch")
    return CheckResult("half-length-collapse", True, "both modes, 24 half-length terms")


def check_transformed_cubic() -> CheckResult:
    ok = cubics.transformed_cubic().apply(cubics.avoidance_series(30)).is_zero()
    return CheckResult("transformed-cubic", ok, "residual mod Z^30" if ok else "nonzero residual")


def check_recurrence() -> CheckResult:
    seq = holonomic.extend([1, 1, 2, 6], 200)
    solver = cubics.avoidance_series(201).integer_coefficients()
    if seq != solver:
        first = next(i for i, (a, b) in enumerate(zip(seq, solver)) if a != b)
        return CheckResult("recurrence-vs-solver", False, f"first mismatch at n={first}")
    if any(holonomic.recurrence_residual(seq)):
        return CheckResult("recurrence-vs-solver", False, "nonzero residual")
    return CheckResult("recurrence-vs-solver", True, "agreement to n=200")


def check_ode() -> CheckResult:
    ok = holonomic.ode_residual(cubics.avoidance_series(30)).is_zero()
    return CheckResult("ode-residual", ok, "zero mod z^28" if ok else "nonzero residual")


def check_boundary_identity() -> CheckResult:
    for mode in kernel.GFMode:
        if not kernel.check_identity_total(20, mode):
            return CheckResult("boundary-identity", False, f"{mode.value} mode")
    return CheckResult("boundary-identity", True, "both modes, mod z^20")


def check_asymptotics() -> CheckResult:
    z0 = asymptotics.Z0
    numeric = asymptotics.dominant_singularity_numeric()
    if abs(numeric - z0) > 1e-12:
        return CheckResult("asymptotics", False, f"numeric z0 {numeric!r} disagrees with closed form {z0!r}")
    coeffs = holonomic.extend([1, 1, 2, 6], 1600)
    ratio_1000 = asymptotics.coefficient_ratio(1000, coeffs)
    if not 0.99 <= ratio_1000 <= 1.01:
        return CheckResult("asymptotics", False, f"ratio at n=1000 is {ratio_1000}")
    ns = (50, 100, 200, 400, 800, 1600)
    devs = [abs(asymptotics.coefficient_ratio(n, coeffs) - 1.0) for n in ns]
    if any(b >= a for a, b in zip(devs, devs[1:])):
        return CheckResult("asymptotics", False, f"deviations not shrinking: {devs}")
    return CheckResult("asymptotics", True, f"ratio(1000)={ratio_1000:.6f}")


CHECKS: List[Callable[..., CheckResult]] = [
    check_dp_vs_oracle,
    check_kernel_residual,
    check_kernel_root_display,
    check_series_vs_golden,
    check_bivariate_vs_golden,
    check_level_gfs,
    check_half_length_collapse,
    check_transformed_cubic,
    check_recurrence,
    check_ode,
    check_boundary_identity,
    check_asymptotics,
]


def run_all(oracle_depth: int) -> List[CheckResult]:
    results = []
    for fn in CHECKS:
        if fn is check_dp_vs_oracle:
            results.append(fn(oracle_depth))
        else:
            results.append(fn())
    return results
