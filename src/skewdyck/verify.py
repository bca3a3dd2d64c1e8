"""Cross-verification suite: every computational route against every other.

Each check compares two sources and returns a pass/fail record; the CLI
`verify` subcommand runs them in this order:

    dp-vs-oracle          automaton vs brute-force walk (`paths`)
    kernel-residual       kernel root vs the cubic it was solved from: a
                          route against itself, so a solver check
    kernel-root-display   kernel root vs vendored golden display
    series-vs-golden      avoidance cubic's root vs vendored A128729
    bivariate-vs-golden   marker cubic's root vs vendored A128728
    level-gf-vs-dp        kernel level series vs automaton, both modes
    half-length-collapse  kernel level 0 at z^2 -> Z vs both cubics' roots
    transformed-cubic     kernel level 0 at z^2 -> Z vs the avoidance cubic
    recurrence-vs-solver  holonomic recurrence vs avoidance cubic's root
    ode-residual          transcribed ODE vs avoidance cubic's root
    boundary-identity     boundary constants vs level 0: one kernel root,
                          two formulas
    asymptotics           closed-form z0 vs bisection on the avoidance
                          cubic; recurrence terms vs the estimate

`run_all` takes one of two paths, with the same results in the same
order.  When the process can fork, no other thread is alive and it can
pin a child to a CPU other than its own, a child process on that CPU
runs a share of the checks while this process runs the rest; the child
sends its results back through a pipe.  Otherwise, or when the child
delivers no result, every check runs here, one after another.

The share depends on the oracle depth alone (`child_checks`), so a job
runs the same checks in the same process every time.  From SPLIT_DEPTH
on the child runs only `dp-vs-oracle`, whose walk grows about 2x per
order and alone outlasts the other eleven checks.  Below it the walk is
short and the child also runs the four avoidance-route checks:
`series-vs-golden`, `recurrence-vs-solver` and `ode-residual`, which
share the avoidance cubic's order-201 root, and `asymptotics`.  SPLIT_DEPTH
records where the two placements cross.

The solver modules are imported by the checks that use them, so that
they load after the fork: on the oracle-only path the child imports
none of them and this process compiles them while the child walks.
When the child runs the avoidance checks as well, `cubics` (with
`series`) and `golden`, which both sides use, load once before the fork.
"""

from __future__ import annotations

import marshal
import os
import sys
from collections import namedtuple
from itertools import zip_longest

from . import automaton, paths
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
    return TPoly([counter.get(j, 0) for j in range(max(counter, default=-1) + 1)])


def check_dp_vs_oracle(depth: int) -> CheckResult:
    """Automaton marker polynomials equal brute-force histograms for all
    lengths up to `depth` and all end levels, in one walk."""
    hist = paths.udr_profile(depth)
    for m, state in enumerate(automaton.walk(depth)):
        got = automaton.by_level(state)
        for k in sorted(got.keys() | hist[m].keys()):
            dp, oracle = got.get(k, TPoly()), _histogram_poly(hist[m].get(k, {}))
            if dp != oracle:
                return CheckResult(
                    "dp-vs-oracle", False, f"mismatch at length {m} level {k}: automaton {dp} vs oracle {oracle}"
                )
    return CheckResult("dp-vs-oracle", True, f"all lengths <= {depth}")


def check_kernel_residual() -> CheckResult:
    from . import kernel

    for mode in kernel.GFMode:
        utilde = kernel.kernel_root(64, mode)
        diff = _residual(kernel.kernel_equation(mode).apply(utilde), "z")
        if diff:
            return CheckResult("kernel-residual", False, f"{mode.value} mode, {diff}")
    return CheckResult("kernel-residual", True, "both modes, mod z^64")


def check_kernel_root_display() -> CheckResult:
    from . import golden, kernel

    want = golden.utilde_display()
    got = kernel.kernel_root(len(want), kernel.GFMode.UNIVARIATE).integer_coefficients()
    diff = _first_difference(got, want, "kernel", "golden")
    return CheckResult("kernel-root-display", not diff, diff)


def check_series_vs_golden() -> CheckResult:
    from . import cubics, golden

    want = golden.a128729_terms()
    got = cubics.avoidance_series(len(want)).integer_coefficients()
    diff = _first_difference(got, want, "solver", "golden")
    return CheckResult("series-vs-golden", not diff, diff or f"{len(want)} terms")


def check_bivariate_vs_golden() -> CheckResult:
    from . import cubics, golden

    want = golden.a128728_rows()
    series = cubics.marker_series(len(want)).integer_coefficients()
    got = [list(c.coeffs) if c.coeffs else [0] for c in series]
    diff = _first_difference(got, want, "solver", "golden")
    return CheckResult("bivariate-vs-golden", not diff, diff)


def check_level_gfs() -> CheckResult:
    from . import kernel

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
    from . import cubics, kernel

    solvers = ((kernel.GFMode.UNIVARIATE, cubics.avoidance_series), (kernel.GFMode.BIVARIATE, cubics.marker_series))
    for mode, solver in solvers:
        lvl0 = kernel.level_gf(0, 48, mode).compress_even()
        diff = _first_difference(lvl0.coeffs, solver(24).coeffs, "kernel", "solver")
        if diff:
            return CheckResult("half-length-collapse", False, f"{mode.value} mode, {diff}")
    return CheckResult("half-length-collapse", True, "both modes, 24 half-length terms")


def check_transformed_cubic() -> CheckResult:
    from . import cubics, kernel

    lvl0 = kernel.level_gf(0, 60, kernel.GFMode.UNIVARIATE).compress_even()
    diff = _residual(cubics.avoidance_cubic().apply(lvl0), "Z")
    return CheckResult("transformed-cubic", not diff, diff or "residual mod Z^30")


def check_recurrence() -> CheckResult:
    from . import cubics, holonomic

    seq = holonomic.extend(holonomic.INITIAL, 200)
    solver = cubics.avoidance_series(201).integer_coefficients()
    diff = _first_difference(seq, solver, "recurrence", "solver")
    return CheckResult("recurrence-vs-solver", not diff, diff or "agreement to n=200")


def check_ode() -> CheckResult:
    from . import cubics, holonomic

    diff = _residual(holonomic.ode_residual(cubics.avoidance_series(30)), "z")
    return CheckResult("ode-residual", not diff, diff or "zero mod z^28")


def check_boundary_identity() -> CheckResult:
    from . import kernel

    for mode in kernel.GFMode:
        consts = kernel.boundary_constants(20, mode)
        constants = 1 + consts["g0"] + consts["h0"] + consts["k0"]
        level0 = kernel.level_gf(0, 20, mode)
        diff = _first_difference(constants.coeffs, level0.coeffs, "constants", "level-0")
        if diff:
            return CheckResult("boundary-identity", False, f"{mode.value} mode, {diff}")
    return CheckResult("boundary-identity", True, "both modes, mod z^20")


def check_asymptotics() -> CheckResult:
    from . import asymptotics, holonomic

    z0 = asymptotics.Z0
    numeric = asymptotics.dominant_singularity_numeric()
    if abs(numeric - z0) > 1e-12:
        return CheckResult("asymptotics", False, f"numeric z0 {numeric!r} disagrees with closed form {z0!r}")
    coeffs = holonomic.extend(holonomic.INITIAL, max(asymptotics.SAMPLE_NS))
    ratio_1000 = asymptotics.coefficient_ratio(1000, coeffs)
    if not 0.99 <= ratio_1000 <= 1.01:
        return CheckResult("asymptotics", False, f"ratio at n=1000 is {ratio_1000} outside [0.99, 1.01]")
    devs = [abs(asymptotics.coefficient_ratio(n, coeffs) - 1.0) for n in asymptotics.SAMPLE_NS]
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


# The oracle depth from which the child runs the oracle alone.  Below it
# the walk is short, and the child also runs the avoidance-route checks,
# so that each side of a job takes about as long; from it on the walk
# alone outlasts the parent's share.  Measured on a 2-core Xeon guest
# (Python 3.11, paired medians of 41 interleaved rounds of fresh
# `verify --order D` processes): the split saved 12 ms of a 130 ms job at
# D = 15, was within 4 ms either way at 16, and cost 22 ms at 17.
SPLIT_DEPTH = 17


def child_checks(depth: int) -> list:
    """The checks a forked child runs beside this process at oracle depth
    `depth`, a choice that depends on nothing else (see SPLIT_DEPTH)."""
    if depth >= SPLIT_DEPTH:
        return [check_dp_vs_oracle]
    return [check_dp_vs_oracle, check_series_vs_golden, check_recurrence, check_ode, check_asymptotics]


def _can_fork() -> bool:
    """Whether a child may run checks beside this process.  A fork
    copies only the calling thread, so no other may be alive; threads
    are started through `threading`, and a process that never imported
    it has none (importing it here would cost every job its start-up)."""
    threading = sys.modules.get("threading")
    return hasattr(os, "fork") and (threading is None or threading.active_count() == 1)


def _other_cpus() -> set[int]:
    """The usable CPUs other than the one this process runs on; empty
    where there is none, or where the system cannot pin a process or
    does not say which CPU it runs on (Linux says, through /proc)."""
    if not hasattr(os, "sched_setaffinity"):
        return set()
    try:
        with open("/proc/self/stat", "rb") as stat:
            cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return set()
    return os.sched_getaffinity(0) - {cpu}


def _run(checks, depth: int) -> list[CheckResult]:
    return [fn(depth) if fn is check_dp_vs_oracle else fn() for fn in checks]


def _fork_checks(checks, depth: int, cpus: set[int]) -> tuple[int, int] | None:
    """Fork a child that runs `checks` on `cpus` and writes their results
    to a pipe as a marshalled list of (name, ok, detail) tuples; return
    (pid, read end), or None when no process can be forked.

    The child leaves only through os._exit, so it never flushes the
    stdout it shares with this process, runs atexit handlers or returns
    into the caller.  It exits 0 only once every result is written.
    """
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
        # Keep off the parent's CPU: a kernel that does not spread
        # runnable processes over its CPUs (as in some virtual machines)
        # would otherwise leave both on one, slower than no child at all.
        os.sched_setaffinity(0, cpus)
        with open(write_end, "wb") as pipe:
            pipe.write(marshal.dumps([tuple(r) for r in _run(checks, depth)]))
        status = 0
    finally:
        os._exit(status)


def run_all(oracle_depth: int) -> list[CheckResult]:
    """Every check in CHECKS order; see the module docstring for the two
    paths.  The child is always reaped, and killed first when a check
    here raises.  When it delivers no result its whole share runs here,
    so that its exception, if any, reaches the caller."""
    cpus = _other_cpus() if _can_fork() else set()
    if not cpus:
        return _run(CHECKS, oracle_depth)
    split = child_checks(oracle_depth)
    theirs = [fn for fn in CHECKS if fn in split]
    if len(theirs) > 1:
        # Both sides solve the cubics and read the golden values: load
        # them once, here, rather than compile them in each process.
        from . import cubics, golden  # noqa: F401
    child = _fork_checks(theirs, oracle_depth, cpus)
    if child is None:
        return _run(CHECKS, oracle_depth)
    pid, read_end = child
    with open(read_end, "rb") as pipe:
        try:
            ours = _run([fn for fn in CHECKS if fn not in split], oracle_depth)
            data = pipe.read()
        except BaseException:
            import signal  # here, off the path every job takes

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    got = [CheckResult(*r) for r in marshal.loads(data)] if status == 0 else _run(theirs, oracle_depth)
    got, ours = iter(got), iter(ours)
    return [next(got) if fn in split else next(ours) for fn in CHECKS]
