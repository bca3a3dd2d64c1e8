"""The vendored golden values hold each published term once.

The kernel-root display is read off the A128729 literal, so a change to
that literal must show in every check that reads it.  The recurrence
reads none of it: it starts from s_0 = 1 and row 0 of the ODE.
"""

import subprocess
import sys

from conftest import SRC_ENV

from skewdyck import golden, holonomic, verify


def test_recurrence_reads_no_golden_term():
    assert holonomic.extend(holonomic.INITIAL, 19) == golden.a128729_terms()
    # In a fresh interpreter, so that holonomic is imported after the patch.
    code = (
        "from skewdyck import golden\n"
        "golden.a128729_terms = lambda: [5, 7, 11, 13, 17]\n"
        "from skewdyck import holonomic\n"
        "print(holonomic.INITIAL, holonomic.extend(holonomic.INITIAL, 19))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"(1,) {golden.a128729_terms()}\n", "")


def test_a_wrong_term_fails_both_checks_that_read_it(monkeypatch):
    # On the one-process path, so that every check sees the patched literal.
    monkeypatch.setattr(verify, "_other_cpus", set)
    terms = golden.a128729_terms()
    terms[3] = 7
    monkeypatch.setattr(golden, "a128729_terms", lambda: list(terms))
    failed = {r.name: r.detail for r in verify.run_all(8) if not r.ok}
    assert failed == {
        "kernel-root-display": "at n=8: kernel -6 vs golden -7",
        "series-vs-golden": "at n=3: solver 6 vs golden 7",
    }


def test_a128728_rows_end_in_a_nonzero_term():
    # bivariate-vs-golden compares TPoly(row), which strips trailing
    # zeros: a stray 0 at the end of a row would pass it unseen.
    assert all(row and row[-1] != 0 for row in golden.a128728_rows())
