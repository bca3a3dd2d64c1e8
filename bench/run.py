"""skewdyck benchmark: CLI job mixes timed end to end, and a traced run per layer.

    python3 bench/run.py --workload {halflength-q,verify,all}
                         --seed N --seconds S --trace {0,1}
    python3 bench/run.py --self-test

Run it from the repository root; it times the package under ./src.  The load
is one client in a closed loop: each job is a fresh ``python -m skewdyck ...``
process, started only after the previous one ended, as a CLI user pays for
it.  A pass is the seeded job list of the workload (bench/workloads.py),
preceded by SETUP_PER_PASS set-up probes (``count 0 0``).  Passes repeat
until the next one would end after --seconds, but at least MIN_PASSES run.
Every output is checked against a reference outside the timed interval.

--trace 0 prints the end-to-end metrics of BENCHMARK.json:

  setup_s      median wall time of ``count 0 0`` (interpreter, import, argparse)
  wall_s       wall time of one pass: sum over its jobs of the per-job median
  cpu_s        the same for user+system CPU of the job processes (RUSAGE_CHILDREN)
  job_p50_s    median wall time over all job samples
  job_tail_s   wall-time percentile p with >= 10 samples beyond it at the
               minimum sample count; p is fixed per workload and recorded
  peak_rss_mb  peak resident set over all job processes

and, beside them, failed_frac: failed jobs over jobs attempted.  A job fails
when it exits non-zero, writes a traceback, or prints output that disagrees
with the reference.  The run is correct only when every failure is the
documented asympt crash (workloads.References.expected_failure).  failed_frac
is no BENCHMARK.json metric, because it is 0 on verify; the final JSON line
carries it as failed/attempted.

--trace 1 runs every job twice in turn, untraced and through bench/tracer.py,
for at least two passes, then times the isolated layer tier (bench/layers.py),
and prints the per-layer metrics of BENCHMARK.json.  Counts must repeat
exactly from pass to pass; a mismatch makes the run incorrect.

The last stdout line is one JSON object {correct, attempted, failed, metrics};
the full results, with provenance and every sample, go to
.bench_out/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

from workloads import MIN_PASSES, WORKLOADS, References, check_setup, make_pass  # noqa: E402

SETUP_ARGV = ("count", "0", "0")
SETUP_PER_PASS = 4
MIN_TRACED_PASSES = 2
JOB_TIMEOUT_S = 120
# Measured before this benchmark existed: five probe runs of the same job
# mixes on a 2-core Xeon (KVM) varied by about +-15% per workload.
PROBE_SPREAD = "about +-15% per workload, five probe runs on a 2-core Xeon (KVM) sandbox"


@dataclass
class Job:
    """One finished CLI invocation."""

    argv: tuple
    wall_s: float
    cpu_s: float
    code: int
    stdout: str
    stderr: str
    error: str | None = None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(argv, env, trace_file: Path | None = None, job_id: str = "") -> Job:
    if trace_file is None:
        cmd = [sys.executable, "-m", "skewdyck", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), job_id, *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code, stdout, stderr = -9, "", f"timed out after {JOB_TIMEOUT_S}s"
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return Job(tuple(argv), wall, cpu, code, stdout, stderr)


class Checker:
    """Judges finished jobs; each distinct (argv, stdout) is checked once.
    A failure other than the documented asympt crash is unexpected and makes
    the run incorrect."""

    def __init__(self, refs: References):
        self.refs = refs
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: dict = {}

    def judge(self, job: Job) -> None:
        self.attempted += 1
        expected = False
        if job.code != 0 or "Traceback (most recent call last)" in job.stderr:
            tail = job.stderr.strip().splitlines()[-1:] or [""]
            job.error = f"exit {job.code}: {tail[0][:200]}"
            expected = self.refs.expected_failure(job.argv, job.stderr)
        else:
            key = (job.argv, job.stdout)
            if key not in self.verdicts:
                if job.argv == SETUP_ARGV:
                    self.verdicts[key] = check_setup(job.stdout)
                else:
                    self.verdicts[key] = self.refs.check(job.argv, job.stdout)
            if self.verdicts[key] is not None:
                job.error = "wrong output: " + self.verdicts[key]
        if job.error is not None:
            self.failed += 1
            self.unexpected += not expected
            self.reasons.setdefault(" ".join(job.argv), job.error)


def tail_percentile(workload: str, jobs_per_pass: int) -> int:
    """Highest whole percentile with >= 10 samples beyond it at the minimum
    sample count of the workload, and never below the median."""
    n_min = MIN_PASSES[workload] * jobs_per_pass
    return max(50, math.floor(100 * (1 - 10 / n_min)))


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _keep_going(passes: int, min_passes: int, start: float, last_pass_s: float, seconds: float) -> bool:
    if passes < min_passes:
        return True
    return time.perf_counter() - start + last_pass_s <= seconds


def measure_end_to_end(workload, jobs, checker, seconds, env):
    walls = [[] for _ in jobs]
    cpus = [[] for _ in jobs]
    setups = []
    passes, last_pass, start = 0, 0.0, time.perf_counter()
    while _keep_going(passes, MIN_PASSES[workload], start, last_pass, seconds):
        p0 = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            job = run_cli(SETUP_ARGV, env)
            checker.judge(job)
            setups.append(job.wall_s)
        for i, argv in enumerate(jobs):
            job = run_cli(argv, env)
            checker.judge(job)
            walls[i].append(job.wall_s)
            cpus[i].append(job.cpu_s)
        last_pass = time.perf_counter() - p0
        passes += 1
    every = [w for ws in walls for w in ws]
    p = tail_percentile(workload, len(jobs))
    tail = percentile(every, p)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(statistics.median(ws) for ws in walls),
        "cpu_s": sum(statistics.median(cs) for cs in cpus),
        "job_p50_s": statistics.median(every),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    samples = {
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "job_samples": len(every),
        "setup_samples": len(setups),
        "tail_percentile": p,
        "samples_beyond_tail": sum(1 for w in every if w > tail),
    }
    raw = {"job_wall_s": walls, "job_cpu_s": cpus, "setup_wall_s": setups}
    return metrics, samples, raw


# -- traced run ---------------------------------------------------------------

# Times are medians over passes; everything else is an exact count.
def _is_exact(name: str) -> bool:
    return not name.endswith(("_s", ".s"))


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the tracer dumps of its jobs."""
    agg: dict = {}  # name -> [calls, inclusive_s, self_s] summed over jobs
    for tr in traces:
        for name, rec in tr["agg"].items():
            total_rec = agg.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                total_rec[k] += rec[k]

    def calls(name):
        return agg[name][0] if name in agg else 0

    def incl(name):
        return agg[name][1] if name in agg else 0.0

    def own(name):
        return agg[name][2] if name in agg else 0.0

    def total(counter):
        return sum(tr["counters"][counter] for tr in traces)

    def top(counter):
        return max(tr["counters"][counter] for tr in traces)

    steps = calls("automaton.step")
    m = {
        "cli.import_s": statistics.median(tr["import_s"] for tr in traces),
        "cli.run_s": incl("cli.run"),
        "series.mul.calls": calls("series.mul"),
        "series.mul.self_s": own("series.mul"),
        "series.mul.coeff_ops": total("series.mul.coeff_ops"),
        "series.inverse.calls": calls("series.inverse"),
        "series.inverse.self_s": own("series.inverse"),
        "series.newton.calls": calls("series.newton"),
        "series.newton.iters": total("series.newton.iters"),
        "series.newton.self_s": own("series.newton"),
        "series.coeff_bits_max": top("series.coeff_bits_max"),
        "rings.tpoly_mul.calls": calls("rings.tpoly_mul"),
        "rings.tpoly_add.calls": calls("rings.tpoly_add"),
        "rings.tpoly.self_s": own("rings.tpoly_mul") + own("rings.tpoly_add"),
        "cubics.avoidance_series.s": incl("cubics.avoidance_series"),
        "cubics.marker_series.s": incl("cubics.marker_series"),
        "kernel.kernel_root.calls": calls("kernel.kernel_root"),
        "kernel.kernel_root.distinct": total("kernel.kernel_root.distinct"),
        "kernel.kernel_root.s": incl("kernel.kernel_root"),
        "kernel.level_gf.s": incl("kernel.level_gf"),
        "automaton.step.calls": steps,
        "automaton.step.self_s": own("automaton.step"),
        "automaton.run.calls": calls("automaton.run"),
        "automaton.states_max": top("automaton.states_max"),
        # A run of length L needs lengths 1..L; a job needs each length once.
        "automaton.step_useful_ratio": total("automaton.run.max_length") / steps if steps else 0.0,
        "holonomic.extend.s": incl("holonomic.extend"),
        "holonomic.extend.terms": total("holonomic.extend.terms"),
        "paths.udr_profile.s": incl("paths.udr_profile"),
        "paths.nodes": total("paths.nodes"),
        "asymptotics.report.s": incl("asymptotics.report"),
    }
    for name in agg:
        if name.startswith("verify."):
            m[name + ".s"] = incl(name)
    return m


def measure_traced(workload, jobs, checker, seconds, env):
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    plain = [[] for _ in jobs]
    traced = [[] for _ in jobs]
    per_pass = []
    passes, last_pass, start = 0, 0.0, time.perf_counter()
    while _keep_going(passes, MIN_TRACED_PASSES, start, last_pass, seconds):
        p0 = time.perf_counter()
        dumps = []
        for i, argv in enumerate(jobs):
            job = run_cli(argv, env)
            checker.judge(job)
            plain[i].append(job.wall_s)
            trace_file = tmp / f"job{i}.json"
            job = run_cli(argv, env, trace_file, f"{workload}/{passes}/{i}")
            checker.judge(job)
            traced[i].append(job.wall_s)
            try:
                dumps.append(json.loads(trace_file.read_text(encoding="utf-8")))
                trace_file.unlink()
            except (OSError, ValueError) as exc:
                raise SystemExit(f"tracer wrote no readable spans for {' '.join(argv)}: {exc}")
        per_pass.append(layer_metrics(dumps))
        last_pass = time.perf_counter() - p0
        passes += 1
    first = per_pass[0]
    mismatches = [
        f"{name}: {[pm.get(name) for pm in per_pass]}"
        for name in first
        if _is_exact(name) and any(pm.get(name) != first[name] for pm in per_pass[1:])
    ]
    metrics = {
        name: first[name] if _is_exact(name) else statistics.median(pm[name] for pm in per_pass)
        for name in first
    }
    untraced = sum(statistics.median(ws) for ws in plain)
    metrics["trace.overhead_frac"] = sum(statistics.median(ws) for ws in traced) / untraced - 1.0
    samples = {"passes": passes, "jobs_per_pass": len(jobs), "traced_samples": sum(map(len, traced))}
    raw = {"untraced_wall_s": plain, "traced_wall_s": traced, "per_pass": per_pass}
    return metrics, samples, raw, mismatches


# -- reporting ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
        "probe_spread": PROBE_SPREAD,
    }


def run_workload(spec, workload, seed, seconds, trace) -> dict:
    env = _env()
    jobs = make_pass(workload, seed)
    checker = Checker(References(jobs))
    checker.judge(run_cli(SETUP_ARGV, env))  # warm-up: byte-compiles the package
    result = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds, "jobs": jobs}
    notes = []
    if trace:
        import layers

        measured, samples, raw, mismatches = measure_traced(workload, jobs, checker, seconds, env)
        measured.update(layers.measure())
        if mismatches:
            notes.append("exact counts differ between passes: " + "; ".join(mismatches))
    else:
        measured, samples, raw = measure_end_to_end(workload, jobs, checker, seconds, env)
    if checker.unexpected:
        notes.append(f"{checker.unexpected} job failures other than the documented asympt crash")
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in listed}
    failed_frac = checker.failed / checker.attempted
    result.update(
        correct=not notes,
        attempted=checker.attempted,
        failed=checker.failed,
        failed_frac=failed_frac,
        failures=checker.reasons,
        notes=notes,
        samples=samples,
        provenance=provenance(seed),
        metrics=metrics,
        unlisted_metrics={k: v for k, v in measured.items() if k not in metrics},
        raw=raw,
    )
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"# workload={workload} seed={seed} trace={trace} seconds={seconds}")
    print("# " + " ".join(f"{k}={v}" for k, v in samples.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed_frac:.6g} ratio ({checker.failed}/{checker.attempted} jobs failed)")
    for argv, reason in checker.reasons.items():
        print(f"#   failed: {argv}: {reason}")
    for note in notes:
        print(f"# INCORRECT: {note}")
    print(f"# results: {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="skewdyck CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself and exit")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "skewdyck" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no skewdyck sources under {SRC} (run from a repository checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all":
        results = [run_workload(spec, args.workload, args.seed, seconds, args.trace)]
        metrics = results[0]["metrics"]
    else:
        # One process per workload: RUSAGE_CHILDREN (peak_rss_mb) never resets.
        results = []
        for w in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed)]
            cmd += ["--seconds", str(seconds), "--trace", str(args.trace)]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                return 1
            path = OUT / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json"
            results.append(json.loads(path.read_text(encoding="utf-8")))
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
