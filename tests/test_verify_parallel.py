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


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the fork path whatever CPUs this machine lets the test use."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("depth", range(1, 13))
def test_fork_and_serial_paths_agree(depth, forks, monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    forked = verify.run_all(depth)
    assert forks == [1]
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    serial = verify.run_all(depth)
    assert forks == [1]
    assert forked == serial
    assert [r.name for r in forked][:2] == ["dp-vs-oracle", "kernel-residual"]
    assert all(r.ok for r in forked)
    _no_child_left()


def test_live_thread_keeps_the_serial_path(forks, two_cpus):
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


def test_exception_in_the_child_reaches_the_caller(forks, two_cpus, monkeypatch):
    def broken(max_length):
        raise KeyError("walk")

    monkeypatch.setattr(paths, "udr_profile", broken)
    with pytest.raises(KeyError, match="walk"):
        verify.run_all(8)
    assert forks == [1]
    _no_child_left()


def test_child_that_dies_leaves_the_oracle_to_the_parent(forks, two_cpus, monkeypatch):
    parent = os.getpid()
    real = paths.udr_profile
    monkeypatch.setattr(paths, "udr_profile", lambda m: os._exit(3) if os.getpid() != parent else real(m))
    results = verify.run_all(8)
    assert forks == [1]
    assert results[0] == verify.CheckResult("dp-vs-oracle", True, "all lengths <= 8")
    _no_child_left()


def test_exception_in_the_parent_kills_and_reaps_the_child(forks, two_cpus, monkeypatch):
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


def test_child_flushes_nothing_and_runs_no_exit_handler():
    code = (
        "import atexit, sys\n"
        "from skewdyck import verify\n"
        "verify._usable_cpus = lambda: 2\n"
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
