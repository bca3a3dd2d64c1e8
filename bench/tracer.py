"""Run one skewdyck CLI job with its layer boundaries wrapped from outside.

    python3 bench/tracer.py OUT.json JOB_ID ARGV...

The package is imported, the public functions and methods named in
``TARGETS`` are replaced by timing wrappers in every skewdyck module that
binds them, and ``skewdyck.cli.run(ARGV)`` is called.  Stdout, stderr and
the exit code stay the CLI's own.  Spans (name, start, end, parent, job id,
self time) and per-name aggregates are kept in memory and written to
OUT.json when the job ends, also when it ends in an exception.

Calls that happen tens of thousands of times per job (series products,
TPoly arithmetic, automaton steps) are aggregated without a span each;
their time still counts as child time of the enclosing span, so every
self time is its span's time minus the time of everything it called.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from fractions import Fraction

perf_counter = time.perf_counter


def _bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return max((_bits(x) for x in c.coeffs), default=0)  # TPoly


def _newton_iterations(order: int, schedule: str) -> int:
    """Loop count of solve_algebraic, computed from its working-order schedule."""
    if schedule == "linear":
        return max(0, order - 1)
    done, n = 1, 0
    while done < order:
        done, n = min(2 * done, order), n + 1
    return n


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list = []
        self.agg: dict = {}  # name -> [calls, inclusive_s, self_s]
        self.stack: list = []  # open frames: [child_s, span id of nearest span]
        self.counters = {
            "series.mul.coeff_ops": 0,
            "series.newton.iters": 0,
            "series.coeff_bits_max": 0,
            "kernel.kernel_root.distinct": 0,
            "automaton.states_max": 0,
            "automaton.run.max_length": 0,
            "holonomic.extend.terms": 0,
            "paths.nodes": 0,
        }
        self.kernel_orders: set = set()

    def wrap(self, name: str, fn, span: bool = True, after=None):
        """Timing wrapper; `after(bound_args, result)` updates counters and
        its own cost is charged to no layer."""
        stack, spans, agg, job = self.stack, self.spans, self.agg, self.job
        sig = inspect.signature(fn) if after else None

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            if span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                rec = agg.get(name)
                if rec is None:
                    rec = agg[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += own
                if span:
                    spans[sid] = (name, t0, t1, parent, job, own)
            if after is not None:
                h0 = perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
                if stack:
                    stack[-1][0] += perf_counter() - h0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counter hooks --------------------------------------------------

    def _bump_bits(self, series) -> None:
        bits = max((_bits(c) for c in series.coeffs), default=0)
        if bits > self.counters["series.coeff_bits_max"]:
            self.counters["series.coeff_bits_max"] = bits

    def after_mul(self, a, result):
        if type(a["other"]) is type(a["self"]):
            n = result.order
            self.counters["series.mul.coeff_ops"] += n * (n + 1) // 2

    def after_inverse(self, a, result):
        self._bump_bits(result)

    def after_newton(self, a, result):
        self.counters["series.newton.iters"] += _newton_iterations(a["order"], a["schedule"])
        self._bump_bits(result)

    def after_kernel_root(self, a, result):
        key = (a["mode"].value, a["order"])
        if key not in self.kernel_orders:
            self.kernel_orders.add(key)
            self.counters["kernel.kernel_root.distinct"] += 1

    def after_step(self, a, result):
        if len(result) > self.counters["automaton.states_max"]:
            self.counters["automaton.states_max"] = len(result)

    def after_run(self, a, result):
        if a["length"] > self.counters["automaton.run.max_length"]:
            self.counters["automaton.run.max_length"] = a["length"]

    def after_extend(self, a, result):
        self.counters["holonomic.extend.terms"] += len(result)

    def after_udr_profile(self, a, result):
        self.counters["paths.nodes"] += sum(
            c for by_level in result for counter in by_level.values() for c in counter.values()
        )

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "job": self.job,
                    "import_s": import_s,
                    "spans": self.spans,
                    "agg": self.agg,
                    "counters": self.counters,
                },
                fh,
            )


def _rebind(original, wrapper, modules) -> None:
    """Replace `original` by `wrapper` wherever a skewdyck module binds it."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    from skewdyck import asymptotics, automaton, cubics, holonomic, kernel, paths, series, verify
    from skewdyck.rings import TPoly
    from skewdyck.series import ZSeries

    modules = [m for name, m in sys.modules.items() if name == "skewdyck" or name.startswith("skewdyck.")]
    t = tracer

    def method(cls, attrs, name, after=None):
        wrapper = t.wrap(name, getattr(cls, attrs[0]), span=False, after=after)
        for attr in attrs:
            setattr(cls, attr, wrapper)

    method(ZSeries, ("__mul__", "__rmul__"), "series.mul", t.after_mul)
    method(ZSeries, ("inverse",), "series.inverse", t.after_inverse)
    method(TPoly, ("__mul__", "__rmul__"), "rings.tpoly_mul")
    method(TPoly, ("__add__", "__radd__"), "rings.tpoly_add")

    functions = [
        (series.solve_algebraic, "series.newton", True, t.after_newton),
        (cubics.avoidance_series, "cubics.avoidance_series", True, None),
        (cubics.marker_series, "cubics.marker_series", True, None),
        (kernel.kernel_root, "kernel.kernel_root", True, t.after_kernel_root),
        (kernel.level_gf, "kernel.level_gf", True, None),
        (automaton.step, "automaton.step", False, t.after_step),
        (automaton.run, "automaton.run", True, t.after_run),
        (holonomic.extend, "holonomic.extend", True, t.after_extend),
        (paths.udr_profile, "paths.udr_profile", True, t.after_udr_profile),
        (asymptotics.convergence_report, "asymptotics.report", True, None),
    ]
    for fn in verify.CHECKS:
        functions.append((fn, "verify." + fn.__name__.removeprefix("check_"), True, None))
    for fn, name, span, after in functions:
        wrapper = t.wrap(name, fn, span=span, after=after)
        _rebind(fn, wrapper, modules)
        verify.CHECKS[:] = [wrapper if c is fn else c for c in verify.CHECKS]


def main(argv: list[str]) -> int:
    out_path, job, cli_argv = argv[0], argv[1], argv[2:]
    t0 = perf_counter()
    from skewdyck import cli

    import_s = perf_counter() - t0
    tracer = Tracer(job)
    install(tracer)
    run = tracer.wrap("cli.run", cli.run)
    try:
        return run(cli_argv)
    except SystemExit as exc:  # argparse rejects a flag
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.dump(out_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
