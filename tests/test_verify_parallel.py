"""verify.run_all's two paths: the brute-force oracle check in a forked
child beside the other checks, and every check in this process."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from skewdyck import paths, verify
from skewdyck.paths import udr_profile

SRC = Path(__file__).resolve().parent.parent / "src"


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
    def broken(max_length):
        raise KeyError("walk")

    monkeypatch.setattr(paths, "udr_profile", broken)
    with pytest.raises(KeyError, match="walk"):
        verify.run_all(8)
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
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "buffered\n12\nexit\n"


def _dict_tally(max_length):
    """udr_profile's tally before it counted into flat lists."""
    hist = [dict() for _ in range(max_length + 1)]
    for word, level, udr in paths._valid_words(max_length):
        counter = hist[len(word)].setdefault(level, {})
        counter[udr] = counter.get(udr, 0) + 1
    return hist


@pytest.mark.parametrize("max_length", range(15))
def test_flat_tally_equals_dict_tally(max_length):
    assert udr_profile(max_length) == _dict_tally(max_length)
