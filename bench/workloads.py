"""Seeded job lists for the benchmark workloads, and the checks on their output.

A job is the argv of one ``python -m skewdyck ...`` invocation.  A pass is
the fixed job list of one (workload, seed); the runner repeats passes.  Job
sizes sit on a fixed grid and the seed only jitters them by 1-2% (cost grows
like N^2 to N^3), draws among depths of equal cost, and shuffles their order,
so every seed costs about the same and the run-to-run spread measures the
machine rather than the draw.

Every check compares a job's stdout with a reference reached by another
route than the one the job times, and nothing here calls the program:

* ``series --half-length`` and ``series`` (Newton over Q, kernel root over Q)
  against the half-length recurrence, transcribed here;
* ``asympt`` exact values against the same transcription, and its ratio
  column against the paper's closed-form amplitude and growth transcribed
  here, not the program's ``asymptotics`` module;
* ``verify``: its twelve checks must all be printed, and every check printed
  must pass.

The only failure a job may show is the documented one: ``asympt --n N``
exits with CPython's 4300-digit int-to-str ``ValueError`` once s_N has more
than 4300 digits (N >= 6499).  Any other failure makes the run incorrect.
"""

from __future__ import annotations

import math
import random
import sys

WORKLOADS = ("halflength-q", "verify")

# Passes every run makes whatever its length; the tail percentile of a
# workload is fixed from these so it never moves with machine speed:
# 5 x 12 halflength-q jobs give p83, 5 x 6 verify jobs p66.
MIN_PASSES = {"halflength-q": 5, "verify": 5}

VERIFY_CHECKS = (
    "dp-vs-oracle",
    "kernel-residual",
    "kernel-root-display",
    "series-vs-golden",
    "bivariate-vs-golden",
    "level-gf-vs-dp",
    "half-length-collapse",
    "transformed-cubic",
    "recurrence-vs-solver",
    "ode-residual",
    "boundary-identity",
    "asymptotics",
)
ORACLE_CAP = 24  # verify --order means oracle depth, capped by the program at 24
INT_STR_DIGITS = 4300  # CPython's default limit on int-to-str conversion
INT_STR_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"


def _jitter(rng: random.Random, centre: int, frac: float) -> int:
    return max(1, round(centre * (1.0 + rng.uniform(-frac, frac))))


def make_pass(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The job list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    jobs: list[tuple[str, ...]] = []
    if workload == "halflength-q":
        for n in (150, 190, 230, 270):
            jobs.append(("series", "--order", str(_jitter(rng, n, 0.01)), "--half-length"))
        for n in (200, 250, 300):
            jobs.append(("series", "--order", str(_jitter(rng, n, 0.01))))
        # 8000 and 12800 stay above n = 6499, where s_n passes CPython's
        # 4300-digit int-to-str limit and the CLI crashes: those jobs fail.
        # Five asympt jobs against seven series jobs keep the median job
        # inside the series cluster, so job_p50_s does not flip between the two.
        for n in (1600, 3200, 5000, 8000, 12800):
            jobs.append(("asympt", "--n", str(_jitter(rng, n, 0.02))))
    elif workload == "verify":
        # Below depth 18 the brute-force walk is small and a job costs the
        # suite's fixed work, so the seed draws depths 14..17; 18 is where
        # the walk starts to show.
        jobs = [("verify", "--order", str(rng.randint(14, 17))) for _ in range(5)]
        jobs.append(("verify", "--order", "18"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# -- references ---------------------------------------------------------------


def half_length_terms(n_max: int) -> list[int]:
    """s_0..s_n_max (A128729) from its fourth-order P-recurrence
    4(n+5)(n+4) s(n+4) = 44n(n+1) s(n) + 2(n+1)(10n-7) s(n+1)
                         - 3(23n^2+106n+115) s(n+2) + 32(n+4)(n+3) s(n+3)."""
    s = [1, 1, 2, 6]
    for n in range(n_max - 3):
        num = (
            44 * n * (n + 1) * s[n]
            + 2 * (n + 1) * (10 * n - 7) * s[n + 1]
            - 3 * (115 + 106 * n + 23 * n * n) * s[n + 2]
            + 32 * (n + 4) * (n + 3) * s[n + 3]
        )
        q, r = divmod(num, 4 * (n + 5) * (n + 4))
        assert r == 0, f"recurrence step at n={n} is not integral"
        s.append(q)
    return s[: n_max + 1]


def _closed_form_log_estimate(n: int) -> float:
    """log of sqrt(2 + 8 sqrt3/9) / (2 sqrt pi) * (2 + 3 sqrt3/2)^n * n^(-3/2)."""
    s3 = math.sqrt(3.0)
    amplitude = math.sqrt(2.0 + 8.0 * s3 / 9.0) / (2.0 * math.sqrt(math.pi))
    return math.log(amplitude) + n * math.log(2.0 + 1.5 * s3) - 1.5 * math.log(n)


class References:
    """Reference data for one pass, built once before the timed loop."""

    def __init__(self, jobs):
        sys.set_int_max_str_digits(0)  # s_n passes 4300 digits at n = 6499
        n_seq = max([3] + [int(job[2]) for job in jobs if job[0] in ("series", "asympt")])
        self.s = half_length_terms(n_seq)

    def expected_failure(self, job, stderr: str) -> bool:
        """True for the documented crash: asympt at an N whose s_N has more
        than 4300 digits, ending on CPython's int-to-str ValueError."""
        if job[0] != "asympt":
            return False
        n = int(job[2])
        last = stderr.strip().splitlines()[-1:] or [""]
        return len(str(self.s[n])) > INT_STR_DIGITS and last[0].startswith("ValueError: " + INT_STR_ERROR)

    def check(self, job, stdout: str) -> str | None:
        """None when stdout is right for the job, else the first disagreement."""
        try:
            return getattr(self, "_check_" + job[0])(job, stdout)
        except (ValueError, IndexError, KeyError) as exc:
            return f"unparseable output: {exc!r}"

    def _check_series(self, job, stdout):
        n = int(job[2])
        got = [int(x) for x in stdout.split()]
        if "--half-length" in job:
            want = self.s[:n]
        else:
            want = [0 if i % 2 else self.s[i // 2] for i in range(n)]
        if got != want:
            return _first_diff("coefficient", got, want)
        return None

    def _check_asympt(self, job, stdout):
        n = int(job[2])
        lines = stdout.splitlines()
        if len(lines) != 2 or lines[0].split() != ["n", "exact", "estimate", "ratio"]:
            return f"expected a header and one row, got {len(lines)} lines"
        n_s, exact_s, est_s, ratio_s = lines[1].split()
        exact = int(exact_s)
        if int(n_s) != n or exact != self.s[n]:
            return f"exact s_{n} disagrees with the recurrence"
        log_est = _closed_form_log_estimate(n)
        if log_est > math.log(1.7976931348623157e308):
            if est_s != "overflow":
                return f"estimate {est_s!r}, expected overflow"
        elif not math.isclose(float(est_s), math.exp(log_est), rel_tol=1e-6):
            return f"estimate {est_s} disagrees with the closed form"
        ratio = math.exp(math.log(exact) - log_est)
        if abs(float(ratio_s) - ratio) > 1e-8 or abs(ratio - 1.0) > 0.01:
            return f"ratio {ratio_s} disagrees with the closed form ({ratio:.9f})"
        return None

    def _check_verify(self, job, stdout):
        depth = min(int(job[2]), ORACLE_CAP)
        lines = stdout.splitlines()
        bad = [ln for ln in lines if not ln.startswith("PASS ")]
        if bad:
            return f"failed check: {bad[0]}"
        names = [ln.split()[1] for ln in lines if len(ln.split()) > 1]
        missing = [c for c in VERIFY_CHECKS if c not in names]
        if missing:
            return f"checks {missing} missing"
        if f"PASS dp-vs-oracle  (all lengths <= {depth})" not in lines:
            return f"no dp-vs-oracle line for depth {depth}"
        return None


def check_setup(stdout: str) -> str | None:
    """The set-up probe `count 0 0` prints the marker polynomial 1."""
    return None if stdout.strip() == "[1]" else f"count 0 0 printed {stdout.strip()!r}"


def _first_diff(what, got, want) -> str:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"{what} {i} disagrees with the reference"
    return f"{len(got)} {what}s, expected {len(want)}"
