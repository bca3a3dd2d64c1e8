"""Self-test of the benchmark itself:  python3 bench/run.py --self-test

1. job lists depend only on (workload, seed), and differ between seeds;
2. the recurrence transcribed for the references agrees with the vendored
   A128729 terms;
3. every output check accepts the program's real output and rejects
   copies with one digit changed (and, for verify, one check failed);
4. a job that exits non-zero, or a verify run that prints a failed check,
   counts as an unexpected failure, which makes the run incorrect; the
   documented asympt crash does not;
5. two traced passes of every workload at the same seed give identical
   exact counts (calls, iterations, distinct orders, terms, nodes, ratios).

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import re

import run
from workloads import WORKLOADS, References, half_length_terms, make_pass

SEED = 7


def _mutations(job, stdout: str):
    digits = [m.start() for m in re.finditer(r"\d", stdout)]
    picks = {digits[0]} if job[0] == "verify" else {digits[0], digits[len(digits) // 2]}
    for i in sorted(picks):
        yield stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1 :]
    if job[0] == "verify":
        yield _fail_last_check(stdout)


def _fail_last_check(stdout: str) -> str:
    head, _, tail = stdout.rpartition("PASS")
    return head + "FAIL" + tail


def _unexpected(refs, job) -> int:
    checker = run.Checker(refs)
    checker.judge(job)
    return checker.unexpected


def _judge_failures(refs, real: dict) -> list[str]:
    """Failures sent through Checker.judge, the path every timed job takes."""
    problems = []
    for argv, job in real.items():
        if job.code != 0 and _unexpected(refs, job):
            problems.append(f"the documented crash of {' '.join(argv)} counts as unexpected")
        if job.code != 0:
            continue
        crashed = run.Job(argv, job.wall_s, job.cpu_s, 1, "", "Traceback (most recent call last):\nValueError: x")
        if not _unexpected(refs, crashed):
            problems.append(f"a crash of {' '.join(argv)} leaves the run correct")
        if argv[0] == "verify":
            failed = _fail_last_check(job.stdout)
            for code in (0, 1):
                bad = run.Job(argv, job.wall_s, job.cpu_s, code, failed, "1 check(s) failed\n")
                if not _unexpected(refs, bad):
                    problems.append(f"a failed check in {' '.join(argv)} (exit {code}) leaves the run correct")
    return problems


def main() -> int:
    from skewdyck import golden

    problems = []

    for w in WORKLOADS:
        if make_pass(w, SEED) != make_pass(w, SEED):
            problems.append(f"{w}: job list not a function of the seed")
        if make_pass(w, SEED) == make_pass(w, SEED + 1):
            problems.append(f"{w}: seeds {SEED} and {SEED + 1} give the same job list")

    terms = golden.a128729_terms()
    if half_length_terms(len(terms) - 1) != terms:
        problems.append("transcribed recurrence disagrees with the vendored A128729 terms")

    env = run._env()
    for w in WORKLOADS:
        jobs = make_pass(w, SEED)
        refs = References(jobs)
        real = {}
        for argv in jobs:
            job = real[argv] = run.run_cli(argv, env)
            if job.code != 0:
                continue  # the documented asympt crashes; nothing to check
            verdict = refs.check(argv, job.stdout)
            if verdict is not None:
                problems.append(f"check rejects real output of {' '.join(argv)}: {verdict}")
            for bad in _mutations(argv, job.stdout):
                if refs.check(argv, bad) is None:
                    problems.append(f"check accepts corrupted output of {' '.join(argv)}")
        problems += _judge_failures(refs, real)

        checker = run.Checker(refs)
        _, samples, _, mismatches = run.measure_traced(w, jobs, checker, 0.0, env)
        problems += [f"{w}: {m}" for m in mismatches]
        if checker.unexpected:
            problems.append(f"{w}: {checker.unexpected} traced or untraced jobs failed unexpectedly")
        print(f"# {w}: {samples['passes']} traced passes, exact counts {'differ' if mismatches else 'repeat'}")

    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
