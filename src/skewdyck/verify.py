"""Cross-verification suite: every computational route against every other.

Each check compares two independently computed objects (brute force,
automaton, kernel series, algebraic solver, recurrence, ODE,
asymptotics, vendored golden values) and returns a pass/fail record.
The CLI `verify` subcommand runs them in a fixed order.

`run_all` takes one of two paths, with the same results in the same
order.  When the process can fork, at least two CPUs are usable and no
other thread is alive, a child process runs the brute-force oracle
check while this process runs the other checks; the child sends its
result back through a pipe.  Otherwise, or when the child delivers no
result, every check runs here, one after another.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections import namedtuple
from itertools import zip_longest

from . import asymptotics, automaton, cubics, golden, holonomic, kernel, paths
from .rings import TPoly


CheckResult = namedtuple("CheckResult", "name ok detail")


def _first_difference(got: list, want: list, got_name: str, want_name: str) -> str:
    """Empty when the lists are equal, else the first index at which they
    differ with both values, e.g. "at n=3: solver 7 vs golden 6" (None
    stands for the missing term of the shorter list)."""
    for n, (a, b) in enumerate(zip_longest(got, want)):
        if a != b:
            return f"at n={n}: {got_name} {a} vs {want_name} {b}"
    return ""


def _residual(series, var: str) -> str:
    """Empty for a zero residual, else its first nonzero coefficient,
    e.g. "at z^7: residual 3"."""
    n = series.valuation()
    return "" if n is None else f"at {var}^{n}: residual {series.coeffs[n]}"


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
        diff = _residual(kernel.kernel_equation(mode).apply(utilde), "z")
        if diff:
            return CheckResult("kernel-residual", False, f"{mode.value} mode, {diff}")
    return CheckResult("kernel-residual", True, "both modes, mod z^64")


def check_kernel_root_display() -> CheckResult:
    want = golden.utilde_display()
    got = kernel.kernel_root(len(want), kernel.GFMode.UNIVARIATE).integer_coefficients()
    diff = _first_difference(got, want, "kernel", "golden")
    return CheckResult("kernel-root-display", not diff, diff)


def check_series_vs_golden() -> CheckResult:
    want = golden.a128729_terms()
    got = cubics.avoidance_series(len(want)).integer_coefficients()
    diff = _first_difference(got, want, "solver", "golden")
    return CheckResult("series-vs-golden", not diff, diff or f"{len(want)} terms")


def check_bivariate_vs_golden() -> CheckResult:
    want = golden.a128728_rows()
    series = cubics.marker_series(len(want)).integer_coefficients()
    got = [list(c.coeffs) if c.coeffs else [0] for c in series]
    diff = _first_difference(got, want, "solver", "golden")
    return CheckResult("bivariate-vs-golden", not diff, diff)


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
            got = track[k].coeffs[m]
            if got != want:
                return CheckResult("level-gf-vs-dp", False, f"k={k} m={m}: kernel {got} vs automaton {want}")
            got = forbid[k].coeffs[m]
            if got != want(0):
                return CheckResult(
                    "level-gf-vs-dp", False, f"forbid k={k} m={m}: kernel {got} vs automaton {want(0)}"
                )
    return CheckResult("level-gf-vs-dp", True, "k <= 6, m <= 16")


def check_half_length_collapse() -> CheckResult:
    """The kernel's level-0 series at z^2 -> Z against the half-length
    solver series: the avoidance series in the univariate mode, the
    marker series in the bivariate one."""
    solvers = ((kernel.GFMode.UNIVARIATE, cubics.avoidance_series), (kernel.GFMode.BIVARIATE, cubics.marker_series))
    for mode, solver in solvers:
        lvl0 = kernel.level_gf(0, 48, mode).compress_even()
        diff = _first_difference(lvl0.coeffs, solver(24).coeffs, "kernel", "solver")
        if diff:
            return CheckResult("half-length-collapse", False, f"{mode.value} mode, {diff}")
    return CheckResult("half-length-collapse", True, "both modes, 24 half-length terms")


def check_transformed_cubic() -> CheckResult:
    diff = _residual(cubics.transformed_cubic().apply(cubics.avoidance_series(30)), "Z")
    return CheckResult("transformed-cubic", not diff, diff or "residual mod Z^30")


def check_recurrence() -> CheckResult:
    seq = holonomic.extend([1, 1, 2, 6], 200)
    solver = cubics.avoidance_series(201).integer_coefficients()
    diff = _first_difference(seq, solver, "recurrence", "solver")
    return CheckResult("recurrence-vs-solver", not diff, diff or "agreement to n=200")


def check_ode() -> CheckResult:
    diff = _residual(holonomic.ode_residual(cubics.avoidance_series(30)), "z")
    return CheckResult("ode-residual", not diff, diff or "zero mod z^28")


def check_boundary_identity() -> CheckResult:
    for mode in kernel.GFMode:
        constants, level0 = kernel.identity_total(20, mode)
        diff = _first_difference(constants.coeffs, level0.coeffs, "constants", "level-0")
        if diff:
            return CheckResult("boundary-identity", False, f"{mode.value} mode, {diff}")
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


CHECKS = [
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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether a child may run the oracle beside this process.  A fork
    copies only the calling thread, so no other may be alive; threads
    are started through `threading`, and a process that never imported
    it has none (importing it here would cost every job its start-up)."""
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork")
        and _usable_cpus() >= 2
        and (threading is None or threading.active_count() == 1)
    )


def _other_cpus() -> set[int] | None:
    """The usable CPUs other than the one this process runs on, or None
    where the system does not say (it does on Linux, through /proc)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None
    return os.sched_getaffinity(0) - {cpu}


def _fork_check(check, depth: int) -> tuple[int, int] | None:
    """Fork a child that runs check(depth) and writes its result to a pipe
    as a marshalled (name, ok, detail) tuple; return (pid, read end), or
    None when no process can be forked.

    The child leaves only through os._exit, so it never flushes the
    stdout it shares with this process, runs atexit handlers or returns
    into the caller.  It exits 0 only once the whole result is written.
    """
    cpus = _other_cpus()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        if cpus:
            # Keep off the parent's CPU: a kernel that does not spread
            # runnable processes over its CPUs (as in some virtual
            # machines) would otherwise leave both on one.
            os.sched_setaffinity(0, cpus)
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps(tuple(check(depth))))
        status = 0
    finally:
        os._exit(status)


def run_all(oracle_depth: int) -> list[CheckResult]:
    """Every check in CHECKS order; see the module docstring for the two
    paths.  The child is always reaped, and killed first when a check
    here raises.  When it delivers no result the oracle check runs here,
    so that its exception, if any, reaches the caller."""
    oracle = check_dp_vs_oracle
    child = _fork_check(oracle, oracle_depth) if _can_fork() else None
    if child is None:
        return [fn(oracle_depth) if fn is oracle else fn() for fn in CHECKS]
    pid, read_end = child
    with open(read_end, "rb") as pipe:
        try:
            results = [fn() for fn in CHECKS if fn is not oracle]
            data = pipe.read()
        except BaseException:
            import signal  # here, off the path every job takes

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if status == 0:
        result = CheckResult(*marshal.loads(data))
    else:
        result = oracle(oracle_depth)
    results.insert(CHECKS.index(oracle), result)
    return results
