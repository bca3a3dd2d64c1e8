"""`cli.main` ends the process with `os._exit` once its output is flushed.

Every test here runs the CLI in a fresh interpreter, because the fast
exit ends the process that calls `main`.  Each checks that nothing is
lost on that path: output through a pipe or into a file, exit codes 1
and 2, the results of a profiler, which needs the normal exit, and the
exit code 2 and one stderr line when stdout is closed or full.
"""

import os
import shlex
import subprocess
import sys

import pytest
from conftest import SRC_ENV

from skewdyck import cli, paths

# Buffered output, as a pipe or file gets by default: whatever main left
# unflushed would be lost.
ENV = {k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}


def _python(*args):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True, timeout=120)


def _skewdyck(*argv):
    return _python("-m", "skewdyck", *argv)


def _main_after(setup, *argv):
    """Run `setup`, then `cli.main()` with `argv`, in a fresh interpreter."""
    code = f"import sys\nfrom skewdyck import cli\n{setup}\nsys.argv = ['skewdyck', *{list(argv)!r}]\ncli.main()"
    return _python("-c", code)


def test_large_output_arrives_whole_through_a_pipe(capsys):
    argv = ["bivariate", "--order", "120", "--format", "json"]
    assert cli.run(argv) == 0
    want = capsys.readouterr().out
    proc = _skewdyck(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(want) > 100_000  # several pipe buffers
    assert proc.stdout == want


def test_failed_verification_still_exits_1():
    # An unmarked G -> K edge makes both automaton checks fail.
    proc = _main_after(
        "from skewdyck import automaton\nfrom skewdyck.rings import TPoly\nautomaton.T = TPoly(1)",
        "verify", "--order", "8",
    )
    assert proc.returncode == 1
    assert proc.stderr == "2 check(s) failed\n"
    assert proc.stdout.count("FAIL ") == 2 and proc.stdout.count("PASS ") == 10


def test_odd_half_length_level_exits_2():
    proc = _skewdyck("levels", "3", "--half-length")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "--half-length requires an even level\n")


def test_bad_flag_exits_2():
    proc = _skewdyck("series", "--frobnicate")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --frobnicate" in proc.stderr


def test_render_writes_the_whole_file(tmp_path):
    word = "UUUDRD" * 1500
    out = tmp_path / "path.svg"
    proc = _skewdyck("render", word, "-o", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert out.read_text(encoding="utf-8") == paths.render_svg(word, 24)


def test_profiler_still_writes_its_stats():
    proc = _python("-m", "cProfile", "-m", "skewdyck", "count", "0", "0")
    assert proc.returncode == 0
    assert proc.stdout.startswith("[1]\n")
    assert "function calls" in proc.stdout


def test_fast_path_skips_atexit_handlers():
    proc = _main_after("import atexit\natexit.register(print, 'atexit ran')", "count", "0", "0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[1]\n", "")


def test_traced_process_exits_normally():
    # With a trace function set, main exits the normal way, so the
    # tracer (coverage, say) still gets to write its results at exit.
    proc = _main_after(
        "import atexit\natexit.register(print, 'atexit ran')\nsys.settrace(lambda *a: None)", "count", "0", "0"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[1]\natexit ran\n", "")


def test_run_returns_in_process():
    proc = _python(
        "-c", "from skewdyck import cli\ncode = cli.run(['count', '0', '0'])\nprint('returned', code)"
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[1]\nreturned 0\n", "")


# One cheap job per subcommand, and the shell redirections that leave no
# usable stdout: closed, or a device that is always full.
SUBCOMMANDS = [
    ["count", "0", "0"],
    ["series", "--order", "5"],
    ["bivariate", "--order", "3"],
    ["levels", "0", "--order", "3"],
    ["verify", "--order", "6"],
    ["asympt", "--n", "5"],
    ["render", "UD"],
    # argparse swallows a failed write of its help and exits 0
    pytest.param(["--help"], id="help"),
    pytest.param(["count", "--help"], id="count-help"),
]
UNWRITABLE = [
    pytest.param(">&-", id="closed"),
    pytest.param(
        ">/dev/full",
        id="full",
        marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
    ),
]


def _shell(argv, redirect):
    command = " ".join(map(shlex.quote, [sys.executable, *argv]))
    return subprocess.run(
        f"{command} {redirect}", shell=True, env=ENV, capture_output=True, text=True, timeout=120
    )


def _assert_unwritable(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot write output: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("redirect", UNWRITABLE)
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_unwritable_stdout_exits_2_with_one_line(argv, redirect):
    _assert_unwritable(_shell(["-m", "skewdyck", *argv], redirect))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_unbuffered_help_on_a_full_device_exits_2():
    # Unbuffered, the write fails inside argparse, which would swallow it.
    _assert_unwritable(_shell(["-u", "-m", "skewdyck", "--help"], ">/dev/full"))


@pytest.mark.parametrize("redirect", UNWRITABLE)
def test_unwritable_stdout_exits_2_when_traced(redirect):
    # The normal exit flushes stdout again at teardown; fd 1 is devnull by then.
    code = "import sys\nsys.settrace(lambda *a: None)\nfrom skewdyck import cli\nsys.argv = ['skewdyck', 'count', '0', '0']\ncli.main()"
    _assert_unwritable(_shell(["-c", code], redirect))
