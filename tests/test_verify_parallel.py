"""verify.run_all's two paths: the brute-force oracle check, and below
verify.SPLIT_DEPTH the avoidance-route checks, in a forked child beside
the other checks; and every check in this process."""

import ast
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import SRC_ENV, valid_words

from skewdyck import paths, verify
from skewdyck.paths import udr_profile


@pytest.fixture
def forks(monkeypatch):
    """Count the forks run_all makes."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


def _own_cpus():
    """Every CPU this process may use: a valid set to pin the child to
    even where there is only one, and so the fork path on any machine."""
    return os.sched_getaffinity(0)


@pytest.fixture
def pinnable(monkeypatch):
    """Take the fork path whatever CPUs this machine lets the test use."""
    monkeypatch.setattr(verify, "_other_cpus", _own_cpus)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("depth", range(1, 13))
def test_fork_and_serial_paths_agree(depth, forks, monkeypatch):
    monkeypatch.setattr(verify, "_other_cpus", _own_cpus)
    forked = verify.run_all(depth)
    assert forks == [1]
    monkeypatch.setattr(verify, "_other_cpus", set)
    serial = verify.run_all(depth)
    assert forks == [1]
    assert forked == serial
    assert [r.name for r in forked][:2] == ["dp-vs-oracle", "kernel-residual"]
    assert all(r.ok for r in forked)
    _no_child_left()


def test_checks_keep_their_order_and_function_names():
    # bench/tracer.py names its verify.* metrics after the functions.
    assert [fn.__name__ for fn in verify.CHECKS] == [
        "check_dp_vs_oracle",
        "check_kernel_residual",
        "check_kernel_root_display",
        "check_series_vs_golden",
        "check_bivariate_vs_golden",
        "check_level_gfs",
        "check_half_length_collapse",
        "check_transformed_cubic",
        "check_recurrence",
        "check_ode",
        "check_boundary_identity",
        "check_asymptotics",
    ]


def test_no_other_cpu_keeps_the_serial_path(forks, monkeypatch):
    monkeypatch.setattr(verify, "_other_cpus", set)
    results = verify.run_all(8)
    assert forks == []
    assert results[0] == verify.CheckResult("dp-vs-oracle", True, "all lengths <= 8")
    assert len(results) == len(verify.CHECKS) and all(r.ok for r in results)


def test_child_runs_on_the_cpus_it_is_given(forks, monkeypatch):
    cpu = min(os.sched_getaffinity(0))
    monkeypatch.setattr(verify, "_other_cpus", lambda: {cpu})

    def affinity(depth):
        return verify.CheckResult("dp-vs-oracle", True, repr(sorted(os.sched_getaffinity(0))))

    monkeypatch.setattr(verify, "check_dp_vs_oracle", affinity)
    monkeypatch.setattr(verify, "CHECKS", [affinity, *verify.CHECKS[1:]])
    results = verify.run_all(4)
    assert forks == [1]
    assert results[0].detail == repr([cpu])
    _no_child_left()


def test_live_thread_keeps_the_serial_path(forks, pinnable):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        results = verify.run_all(6)
    finally:
        stop.set()
        thread.join()
    assert forks == []
    assert all(r.ok for r in results)


def test_exception_in_the_child_reaches_the_caller(forks, pinnable, monkeypatch):
    """As its check's FAIL record, which the child sends back."""
    parent = os.getpid()

    def broken(max_length):
        raise KeyError("walk" if os.getpid() == parent else "child walk")

    monkeypatch.setattr(paths, "udr_profile", broken)
    results = verify.run_all(8)
    assert results[0] == verify.CheckResult("dp-vs-oracle", False, "KeyError: 'child walk'")
    assert all(r.ok for r in results[1:])
    assert forks == [1]
    _no_child_left()


def test_child_that_dies_leaves_the_oracle_to_the_parent(forks, pinnable, monkeypatch):
    parent = os.getpid()
    real = paths.udr_profile
    monkeypatch.setattr(paths, "udr_profile", lambda m: os._exit(3) if os.getpid() != parent else real(m))
    results = verify.run_all(8)
    assert forks == [1]
    assert results[0] == verify.CheckResult("dp-vs-oracle", True, "all lengths <= 8")
    _no_child_left()


def test_exception_in_the_parent_kills_and_reaps_the_child(forks, pinnable, monkeypatch):
    monkeypatch.setattr(paths, "udr_profile", lambda m: time.sleep(60))

    def broken():
        raise ValueError("parent")

    monkeypatch.setattr(verify, "CHECKS", [*verify.CHECKS[:-1], broken])
    start = time.perf_counter()
    with pytest.raises(ValueError, match="parent"):
        verify.run_all(8)
    assert time.perf_counter() - start < 30
    assert forks == [1]
    _no_child_left()


def test_interrupt_in_a_check_here_kills_and_reaps_the_child(forks, pinnable, monkeypatch):
    """A registered check turns an Exception into its FAIL record, but a
    KeyboardInterrupt passes through it to the caller."""
    monkeypatch.setattr(paths, "udr_profile", lambda m: time.sleep(60))
    monkeypatch.setattr(verify, "CHECKS", verify.CHECKS[:-1])

    @verify._check("interrupted")
    def interrupted():
        raise KeyboardInterrupt

    assert verify.CHECKS[-1] is interrupted
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        verify.run_all(8)
    assert time.perf_counter() - start < 30
    assert forks == [1]
    _no_child_left()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the CPU from /proc")
def test_child_cpus_leave_out_the_parents_only():
    cpus = verify._other_cpus()
    usable = os.sched_getaffinity(0)
    assert cpus < usable and len(cpus) == len(usable) - 1


def test_no_cpus_where_the_system_cannot_say(monkeypatch):
    def unreadable(*args):
        raise OSError("no /proc")

    monkeypatch.setattr(verify, "open", unreadable, raising=False)
    assert verify._other_cpus() == set()
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    assert verify._other_cpus() == set()


def test_child_flushes_nothing_and_runs_no_exit_handler():
    code = (
        "import atexit, os, sys\n"
        "from skewdyck import verify\n"
        "verify._other_cpus = lambda: os.sched_getaffinity(0)\n"
        "atexit.register(lambda: sys.stdout.write('exit\\n'))\n"
        "sys.stdout.write('buffered\\n')\n"
        "print(sum(r.ok for r in verify.run_all(6)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered\n12\nexit\n"


@pytest.mark.parametrize("below", [True, False], ids=["below-split", "at-split"])
def test_no_module_loads_in_both_processes(below):
    """Each side reports the package modules it loaded after the fork."""
    code = (
        "import os, sys\n"
        "from skewdyck import verify\n"
        "verify._other_cpus = lambda: os.sched_getaffinity(0)\n"
        "fork, run, before = os.fork, verify._run, set()\n"
        "def noting():\n"
        "    before.update(sys.modules)\n"
        "    return fork()\n"
        "def reporting(checks, depth):\n"
        "    results = run(checks, depth)\n"
        "    new = sorted(m for m in set(sys.modules) - before if m.startswith('skewdyck'))\n"
        "    os.write(1, repr(new).encode() + b'\\n')\n"
        "    return results\n"
        "os.fork, verify._run = noting, reporting\n"
        f"verify.run_all(verify.SPLIT_DEPTH - {int(below)})\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    first, second = (set(ast.literal_eval(line)) for line in proc.stdout.splitlines())
    assert not first & second
    assert "skewdyck.kernel" in first | second
    if not below:  # the child runs only the oracle, whose modules loaded before the fork
        assert not first or not second


def _dict_tally(max_length):
    """udr_profile's tally before it counted into flat lists."""
    hist = [dict() for _ in range(max_length + 1)]
    for word, level, udr in valid_words(max_length):
        counter = hist[len(word)].setdefault(level, {})
        counter[udr] = counter.get(udr, 0) + 1
    return hist


@pytest.mark.parametrize("max_length", range(17))
def test_flat_tally_equals_dict_tally(max_length):
    assert udr_profile(max_length) == _dict_tally(max_length)


def test_leaf_tally_at_the_shortest_lengths():
    # Length 2 has UU and UD; UR is a forbidden factor and D, R dip below the axis.
    assert udr_profile(0) == [{0: {0: 1}}]
    assert udr_profile(1) == [{0: {0: 1}}, {1: {0: 1}}]
    assert udr_profile(2) == [{0: {0: 1}}, {1: {0: 1}}, {2: {0: 1}, 0: {0: 1}}]


AVOIDANCE_SHARE = [
    verify.check_dp_vs_oracle,
    verify.check_series_vs_golden,
    verify.check_recurrence,
    verify.check_asymptotics,
]


def test_split_depends_on_the_depth_alone():
    splits = [verify.child_checks(d) for d in range(paths.ORACLE_CAP + 1)]
    verify.run_all(verify.SPLIT_DEPTH - 1)
    assert [verify.child_checks(d) for d in range(paths.ORACLE_CAP + 1)] == splits
    for depth, split in enumerate(splits):
        want = AVOIDANCE_SHARE if depth < verify.SPLIT_DEPTH else AVOIDANCE_SHARE[:1]
        assert split == want, depth


@pytest.fixture
def shares(monkeypatch):
    """Record the checks each forked child is given."""
    given = []
    fork_checks = verify._fork_checks

    def recording(checks, depth, cpus):
        given.append(list(checks))
        return fork_checks(checks, depth, cpus)

    monkeypatch.setattr(verify, "_fork_checks", recording)
    return given


@pytest.mark.parametrize("depth", [5, 6, 7])
def test_paths_agree_on_both_sides_of_the_split(depth, shares, monkeypatch):
    monkeypatch.setattr(verify, "SPLIT_DEPTH", 6)
    monkeypatch.setattr(verify, "_other_cpus", _own_cpus)
    forked = verify.run_all(depth)
    monkeypatch.setattr(verify, "_other_cpus", set)
    assert verify.run_all(depth) == forked
    assert all(r.ok for r in forked) and len(forked) == len(verify.CHECKS)
    assert shares == [AVOIDANCE_SHARE if depth < 6 else AVOIDANCE_SHARE[:1]]
    _no_child_left()


def _parent_calls(monkeypatch, module, name, in_child):
    """Replace module.name by a wrapper that calls in_child() in a forked
    child and counts this process's calls."""
    parent, real, calls = os.getpid(), getattr(module, name), []

    def wrapper(*args):
        if os.getpid() != parent:
            in_child()
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _raise_key_error():
    raise KeyError("child")


# A check's Exception is its FAIL record; only a child that dies, or
# leaves through a BaseException such as SystemExit, sends no result.
@pytest.mark.parametrize("in_child", [lambda: os._exit(3), lambda: sys.exit(3)], ids=["dies", "raises"])
def test_child_failing_a_non_oracle_check_leaves_its_share_here(in_child, forks, pinnable, monkeypatch):
    from skewdyck import holonomic

    with monkeypatch.context() as m:
        m.setattr(verify, "_other_cpus", set)
        serial = verify.run_all(8)
    walks = _parent_calls(monkeypatch, paths, "udr_profile", lambda: None)
    extends = _parent_calls(monkeypatch, holonomic, "extend", in_child)
    assert verify.run_all(8) == serial
    assert forks == [1]
    # The oracle ran here too, and so did the child's two checks that extend
    # the recurrence, besides ode-residual, which always runs here.
    assert walks == [1] and extends == [1, 1, 1]
    _no_child_left()


def test_exception_in_a_non_oracle_check_reaches_the_caller(forks, pinnable, monkeypatch):
    """As the FAIL records of the child's two checks that extend the
    recurrence, which this process does not run again."""
    from skewdyck import holonomic

    walks = _parent_calls(monkeypatch, paths, "udr_profile", lambda: None)
    extends = _parent_calls(monkeypatch, holonomic, "extend", _raise_key_error)
    results = verify.run_all(8)
    failed = {r.name: r.detail for r in results if not r.ok}
    assert failed == {"recurrence-vs-solver": "KeyError: 'child'", "asymptotics": "KeyError: 'child'"}
    # Only ode-residual, which always runs here, extended it here.
    assert walks == [] and extends == [1]
    assert forks == [1]
    _no_child_left()
