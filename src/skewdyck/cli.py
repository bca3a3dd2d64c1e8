"""Command-line front end.

Subcommands: count, series, bivariate, levels, verify, asympt, render.
Output is byte-stable for fixed flags.  JSON payloads: series, levels
and bivariate print {"sequence": [...cell strings...], "variable":
"z"|"z(half)", "t_mode": <track|zero|one|rational>} (a bivariate cell
is a row, a list of strings); count {"count", "t_mode"}; verify a list
of {"name", "ok", "detail"}; asympt a list of {"n", "exact" (a string),
"estimate" (a float, or null past double range), "ratio"}.  Exit codes:
0 success, 1 failed verification, a check that raised included (it
prints as `FAIL dp-vs-oracle  (KeyError: 'X')`), 2 flag errors (every
size has an upper cap below) and output that cannot be written (stdout
closed, a full disk, a bad `render -o` path), with one stderr line.  A
reader that closes the pipe early, as `skewdyck bivariate --order 200 |
head -1` does, is no error: the command ends quietly with exit 0.

The engine computes over Z and Z[t]; a rational --t-eval is applied
only here, to the finished marker polynomials.  Each output cell is
`str` of an int, a Fraction or a TPoly, whose form (`[71 64 2]`)
`rings` decides.

Each subcommand imports the modules it runs when it runs, so start-up
loads only argparse and this module; the verify cap comes from the
package root.  `verify` may run a share of its checks, the brute-force
oracle among them, in a forked child on a second CPU (see
`verify.run_all`); its output is the same either way.

`main` flushes the output and then ends the process with `os._exit`,
skipping the interpreter's teardown (module cleanup, the shutdown
garbage collections, freeing every object); `atexit` handlers therefore
do not run.  It flushes after argparse's `SystemExit` (errors, `--help`)
too, and then exits the normal way, as it does when an exception other
than a failed write leaves `run` and when a tracer, profiler or
monitoring tool is attached, so that the tool can write its results.
`run` only returns the exit code (or raises argparse's `SystemExit`),
so that callers in the same process go on.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys

from . import ORACLE_CAP

DEFAULT_ORDER = 16
ASYMPT_CAP = 20000  # largest --n; s_20000 has 13 245 digits
ASYMPT_NS_CAP = 100  # --n values in one asympt request
# Upper caps on the other sizes, chosen from timings: at most about 11 s
# of work at any cap on a 2-core Xeon guest (README lists them).
SERIES_CAP = 2000  # series --order: bounds the output (1.32 MB), not the work (0.07 s)
BIVARIATE_CAP = 250  # bivariate --order
LEVELS_CAP = 300  # levels --order and the level
COUNT_CAP = 600  # count length and level
UNIT_PX_CAP = 1000  # render --unit-px
RENDER_CAP = 10000  # render word letters; about 0.1 s and 1.1 MB of SVG at the cap
T_EVAL_DIGITS = 30  # digits of a rational --t-eval's numerator and denominator
T_NAMED = {"zero": 0, "one": 1}


def _bounded_int(lo: int, hi: int):
    """argparse type: an int in [lo, hi]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is out of range: must be between {lo} and {hi}")
        return value

    return parse


def _bounded_word(text: str) -> str:
    """argparse type: a render word of at most RENDER_CAP letters, checked
    before it is parsed."""
    if len(text) > RENDER_CAP:
        raise argparse.ArgumentTypeError(f"word has {len(text)} letters: at most {RENDER_CAP}")
    return text


class _AppendAtMost(argparse.Action):
    """argparse action: append, up to ASYMPT_NS_CAP values."""

    def __call__(self, parser, namespace, value, option_string):
        values = [*(getattr(namespace, self.dest) or ()), value]
        if len(values) > ASYMPT_NS_CAP:
            parser.error(f"argument {option_string}: at most {ASYMPT_NS_CAP} values")
        setattr(namespace, self.dest, values)


def _parse_t_eval(value: str):
    if value == "track" or value in T_NAMED:
        return value
    from fractions import Fraction

    try:
        if "e" in value.lower() or "_" in value:  # an exponent is unbounded; "_" parses from 3.11 on
            raise ValueError
        t = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"--t-eval must be track, zero, one, or a rational, not {value!r}"
        )
    if max(abs(t.numerator), t.denominator) >= 10**T_EVAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"--t-eval {value}: numerator and denominator must have at most {T_EVAL_DIGITS} digits"
        )
    return t


def _emit(args, payload, rows, text_line) -> None:
    """Print `payload` as JSON, or one line per row of string cells: the
    cells joined by a tab (tsv) or laid out by `text_line` (text)."""
    if args.format == "json":
        import json

        print(json.dumps(payload))
        return
    line = "\t".join if args.format == "tsv" else text_line
    for row in rows:
        print(line(row))


def _emit_sequence(args, coeffs, variable: str, t_mode: str) -> None:
    cells = [str(c) for c in coeffs]  # an int, a TPoly or a Fraction
    _emit(args, {"sequence": cells, "variable": variable, "t_mode": t_mode}, [cells], " ".join)


def _eval_tpoly(poly, t_eval):
    """The marker polynomial `poly`, or its value at the --t-eval point."""
    if t_eval == "track":
        return poly
    return poly(T_NAMED.get(t_eval, t_eval))


def cmd_count(args) -> int:
    from . import automaton

    result = str(_eval_tpoly(automaton.count(args.length, args.level), args.t_eval))
    _emit(args, {"count": result, "t_mode": str(args.t_eval)}, [[result]], " ".join)
    return 0


def cmd_series(args) -> int:
    from . import holonomic

    if args.half_length:
        coeffs = holonomic.extend(holonomic.INITIAL, args.order - 1)
    else:  # s_n counts the paths of length 2n, so it sits at z^(2n)
        coeffs = [0] * args.order
        coeffs[::2] = holonomic.extend(holonomic.INITIAL, (args.order - 1) // 2)
    _emit_sequence(args, coeffs, "z(half)" if args.half_length else "z", "zero")
    return 0


def cmd_bivariate(args) -> int:
    from . import cubics

    series = cubics.marker_series(args.order).integer_coefficients()
    rows = [[str(x) for x in (r.coeffs or (0,))] for r in series]
    payload = {"sequence": rows, "variable": "z(half)", "t_mode": "track"}
    _emit(args, payload, [[f"{n}:", *row] for n, row in enumerate(rows)], " ".join)
    return 0


def cmd_levels(args) -> int:
    if args.half_length and args.level % 2 != 0:
        print("--half-length requires an even level", file=sys.stderr)
        return 2
    from . import kernel

    mode = kernel.GFMode.UNIVARIATE if args.t_eval == "zero" else kernel.GFMode.BIVARIATE
    gf = kernel.level_gf(args.level, args.order, mode)
    if args.half_length:
        gf = gf.compress_even()
    coeffs = gf.integer_coefficients()
    if mode is kernel.GFMode.BIVARIATE:
        coeffs = [_eval_tpoly(c, args.t_eval) for c in coeffs]
    variable = "z(half)" if args.half_length else "z"
    _emit_sequence(args, coeffs, variable, str(args.t_eval))
    return 0


def _verify_text_line(row) -> str:
    status, name, detail = row
    return f"{status} {name}  ({detail})" if detail else f"{status} {name}"


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_all(oracle_depth=args.order)
    rows = [("PASS" if r.ok else "FAIL", r.name, r.detail) for r in results]
    _emit(args, [r._asdict() for r in results], rows, _verify_text_line)
    failed = sum(not r.ok for r in results)
    if failed:
        print(f"{failed} check(s) failed", file=sys.stderr)
        return 1
    return 0


def cmd_asympt(args) -> int:
    from . import asymptotics, holonomic

    ns = args.n or asymptotics.SAMPLE_NS
    coeffs = holonomic.extend(holonomic.INITIAL, max(ns))
    rows = asymptotics.convergence_report(ns, coeffs)
    # s_n passes CPython's 4300-digit int-to-str limit at n = 6499; --n is
    # capped at ASYMPT_CAP, so lifting the limit here stays bounded.
    # Python 3.10 before 3.10.7 has no limit.
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _emit_asympt(args, rows)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return 0


def _emit_asympt(args, rows) -> None:
    rows = [(n, str(s), est, ratio) for n, s, est, ratio in rows]
    payload = [{"n": n, "exact": s, "estimate": est, "ratio": ratio} for n, s, est, ratio in rows]
    lines = [("n", "exact", "estimate", "ratio")] + [
        (str(n), s, "overflow" if est is None else f"{est:.6e}", f"{ratio:.9f}")
        for n, s, est, ratio in rows
    ]
    _emit(args, payload, lines, "  ".join)


def cmd_render(args) -> int:
    from . import paths

    try:
        svg = paths.render_svg(paths.parse_word(args.word), args.unit_px)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            print(f"cannot write {args.output}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(svg)
    return 0


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file):
        # argparse's own swallows a failed write; `main` must see a lost --help
        if file is sys.stdout:
            return file.write(message)
        super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewdyck",
        description="Exact enumeration of skew Dyck paths with the up-down-red pattern forbidden or counted.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    t_eval_help = (
        "evaluate the marker t: track (default), zero, one or a rational such as 1/2; "
        "write a negative rational with '=', as in --t-eval=-7/3"
    )

    terms_help = "truncation order / number of terms"

    def add_order(p, cap, help_text):
        p.add_argument(
            "--order", type=_bounded_int(1, cap), default=DEFAULT_ORDER, help=f"{help_text}, 1..{cap}"
        )

    def add_format(p):
        p.add_argument("--format", choices=("json", "text", "tsv"), default="text")

    p = sub.add_parser("count", help="paths of a given length and end level")
    p.add_argument("length", type=_bounded_int(0, COUNT_CAP), help=f"0..{COUNT_CAP}")
    p.add_argument("level", type=_bounded_int(0, COUNT_CAP), help=f"0..{COUNT_CAP}")
    p.add_argument("--t-eval", type=_parse_t_eval, default="track", help=t_eval_help)
    add_format(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("series", help="avoidance series at level 0")
    add_order(p, SERIES_CAP, terms_help)
    add_format(p)
    p.add_argument("--half-length", action="store_true")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("bivariate", help="marker triangle rows at half-length")
    add_order(p, BIVARIATE_CAP, terms_help)
    add_format(p)
    p.set_defaults(fn=cmd_bivariate)

    p = sub.add_parser("levels", help="generating series of paths ending at a level")
    p.add_argument("level", type=_bounded_int(0, LEVELS_CAP), help=f"0..{LEVELS_CAP}")
    p.add_argument("--t-eval", type=_parse_t_eval, default="track", help=t_eval_help)
    p.add_argument("--half-length", action="store_true")
    add_order(p, LEVELS_CAP, terms_help)
    add_format(p)
    p.set_defaults(fn=cmd_levels)

    p = sub.add_parser("verify", help="run the full cross-check suite")
    add_order(p, ORACLE_CAP, "brute-force oracle depth")
    add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("asympt", help="convergence report of exact vs asymptotic counts")
    n_help = f"half-length to report, 1..{ASYMPT_CAP} (repeatable, at most {ASYMPT_NS_CAP} times)"
    p.add_argument("--n", type=_bounded_int(1, ASYMPT_CAP), action=_AppendAtMost, help=n_help)
    add_format(p)
    p.set_defaults(fn=cmd_asympt)

    p = sub.add_parser("render", help="render a path word (letters U, D, R) as SVG")
    p.add_argument("word", type=_bounded_word, help=f"at most {RENDER_CAP} letters")
    p.add_argument("--unit-px", type=_bounded_int(1, UNIT_PX_CAP), default=24, help=f"1..{UNIT_PX_CAP}")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_render)

    return parser


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


def _observed() -> bool:
    """Whether a tracer, profiler or monitoring tool (coverage, cProfile,
    a debugger) is attached and must see the normal exit to report."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: cProfile registers here, not with setprofile
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))  # ids 0-5


def main() -> None:
    try:
        if sys.stdout is None:  # started with fd 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        try:
            code = run(sys.argv[1:])
        finally:  # after argparse's SystemExit too, so that a lost --help shows
            sys.stdout.flush()
            sys.stderr.flush()
    except OSError as exc:
        # A reader that closed the pipe early, as `| head` does, is no error;
        # any other failed write is.  Point fd 1 at devnull so that no later
        # flush can raise again (the recipe in the Python docs for SIGPIPE).
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = 0 if isinstance(exc, BrokenPipeError) else 2
        if code and sys.stderr is not None:
            with contextlib.suppress(OSError):  # stderr may be unwritable too
                print(f"cannot write output: {exc.strerror or exc}", file=sys.stderr, flush=True)
    if _observed():
        sys.exit(code)
    # Everything is written: skip the interpreter's teardown.
    os._exit(code)


if __name__ == "__main__":
    main()
