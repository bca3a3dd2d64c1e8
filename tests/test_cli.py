import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skewdyck import automaton, cubics, golden, holonomic, kernel
from skewdyck.cli import (
    ASYMPT_CAP,
    BIVARIATE_CAP,
    COUNT_CAP,
    LEVELS_CAP,
    RENDER_CAP,
    SERIES_CAP,
    T_EVAL_DIGITS,
    UNIT_PX_CAP,
    build_parser,
    run,
)
from skewdyck.paths import ORACLE_CAP
from skewdyck.rings import QQ, QT, T, TPoly
from skewdyck.series import AlgEquation, ZSeries


@pytest.fixture
def capout(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestSeries:
    def test_half_length_display(self, capout):
        code, out, _ = capout("series", "--order", "9", "--half-length")
        assert code == 0
        assert out.strip() == "1 1 2 6 20 71 262 994 3852"

    def test_full_length(self, capout):
        code, out, _ = capout("series", "--order", "9")
        assert code == 0
        assert out.strip() == "1 0 1 0 2 0 6 0 20"

    def test_json_schema(self, capout):
        code, out, _ = capout("series", "--order", "5", "--half-length", "--format", "json")
        payload = json.loads(out)
        assert payload == {
            "sequence": ["1", "1", "2", "6", "20"],
            "variable": "z(half)",
            "t_mode": "zero",
        }

    def test_byte_stable(self, capout):
        _, out1, _ = capout("series", "--order", "12", "--half-length")
        _, out2, _ = capout("series", "--order", "12", "--half-length")
        assert out1 == out2


class TestBivariate:
    def test_rows(self, capout):
        code, out, _ = capout("bivariate", "--order", "7")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[5] == "5: 71 64 2"
        assert lines[6] == "6: 262 261 20"

    def test_json(self, capout):
        _, out, _ = capout("bivariate", "--order", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["sequence"] == [["1"], ["1"], ["2", "1"]]
        assert payload["t_mode"] == "track"


class TestCount:
    def test_total(self, capout):
        code, out, _ = capout("count", "4", "0", "--t-eval", "one")
        assert code == 0
        assert out.strip() == "3"

    def test_track(self, capout):
        _, out, _ = capout("count", "10", "0")
        assert out.strip() == "[71 64 2]"

    def test_forbid(self, capout):
        _, out, _ = capout("count", "8", "0", "--t-eval", "zero")
        assert out.strip() == "20"

    def test_rational_t(self, capout):
        _, out, _ = capout("count", "10", "0", "--t-eval", "1/2")
        assert out.strip() == "207/2"  # 71 + 64/2 + 2/4

    def test_negative_rational_t(self, capout):
        # "--t-eval -7/3" would read -7/3 as an option; the "=" form works.
        _, out, _ = capout("count", "10", "0", "--t-eval=-7/3")
        assert out.strip() == "-607/9"  # 71 - 64*7/3 + 2*49/9


class TestLevels:
    def test_level1_starts_with_single_path(self, capout):
        code, out, _ = capout("levels", "1", "--order", "4", "--t-eval", "zero")
        assert code == 0
        assert out.strip() == "0 1 0 2"  # paths U; UUD, UDU

    def test_zero_mode_equals_series_compressed(self, capout):
        _, levels_out, _ = capout("levels", "0", "--order", "17", "--t-eval", "zero", "--half-length")
        _, series_out, _ = capout("series", "--order", "9", "--half-length")
        assert levels_out == series_out


class TestVerify:
    def test_passes_on_unmodified_build(self, capout):
        code, out, err = capout("verify", "--order", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 12
        assert all(line.startswith("PASS") for line in lines)

    def test_json_format(self, capout):
        code, out, _ = capout("verify", "--order", "8", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 12
        assert all(set(r) == {"name", "ok", "detail"} and r["ok"] is True for r in records)
        assert records[0] == {"name": "dp-vs-oracle", "ok": True, "detail": "all lengths <= 8"}

    def test_tsv_format(self, capout):
        _, out, _ = capout("verify", "--order", "8", "--format", "tsv")
        rows = [line.split("\t") for line in out.splitlines()]
        assert len(rows) == 12
        assert rows[0] == ["PASS", "dp-vs-oracle", "all lengths <= 8"]
        assert rows[2] == ["PASS", "kernel-root-display", ""]

    def test_wrong_automaton_fails_both_automaton_checks(self, capout, monkeypatch):
        # An unmarked G -> K edge: the automaton then counts every path
        # with t = 1, so both checks that walk it must catch the error.
        monkeypatch.setattr(automaton, "T", TPoly(1))
        code, out, err = capout("verify", "--order", "8")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL dp-vs-oracle  (mismatch at length 4 level 0: automaton 3 vs oracle 2 + t)"
        assert lines[5] == "FAIL level-gf-vs-dp  (k=0 m=4: kernel 2 + t vs automaton 3)"
        assert len(lines) == 12
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i not in (0, 5))
        assert err == "2 check(s) failed\n"

    @pytest.mark.parametrize(
        "accessor, n, wrong, line_no, line",
        [
            ("utilde_display", 6, -3, 2, "FAIL kernel-root-display  (at n=6: kernel -2 vs golden -3)"),
            ("a128729_terms", 3, 7, 3, "FAIL series-vs-golden  (at n=3: solver 6 vs golden 7)"),
            (
                "a128728_rows",
                5,
                [71, 64, 3],
                4,
                "FAIL bivariate-vs-golden  (at n=5: solver [71, 64, 2] vs golden [71, 64, 3])",
            ),
        ],
    )
    def test_one_wrong_golden_term_fails_only_its_check(
        self, capout, monkeypatch, accessor, n, wrong, line_no, line
    ):
        values = getattr(golden, accessor)()
        values[n] = wrong
        monkeypatch.setattr(golden, accessor, lambda: values)
        code, out, err = capout("verify", "--order", "8")
        assert code == 1
        lines = out.splitlines()
        assert lines[line_no] == line
        assert len(lines) == 12
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i != line_no)
        assert err == "1 check(s) failed\n"

    def test_wrong_recurrence_term_names_index_and_values(self, capout, monkeypatch):
        extend = holonomic.extend

        def off_at_4(initial, n):
            seq = extend(initial, n)
            seq[4] += 1
            return seq

        monkeypatch.setattr(holonomic, "extend", off_at_4)
        code, out, err = capout("verify", "--order", "8")
        assert code == 1
        lines = out.splitlines()
        assert lines[8] == "FAIL recurrence-vs-solver  (at n=4: recurrence 21 vs solver 20)"
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i != 8)
        assert err == "1 check(s) failed\n"

    @staticmethod
    def _only_failure(capout, line_no, line):
        code, out, err = capout("verify", "--order", "8")
        assert code == 1
        lines = out.splitlines()
        assert lines[line_no] == line
        assert len(lines) == 12
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i != line_no)
        assert err == "1 check(s) failed\n"

    def test_wrong_kernel_root_names_mode_power_and_residual(self, capout, monkeypatch):
        kernel_root = kernel.kernel_root

        def off_at_z7(order, mode):  # only the residual check asks for order 64
            root = kernel_root(order, mode)
            return root + ZSeries([0] * 7 + [3], order, root.ring) if order == 64 else root

        monkeypatch.setattr(kernel, "kernel_root", off_at_z7)
        self._only_failure(capout, 1, "FAIL kernel-residual  (univariate mode, at z^7: residual 3)")

    def test_wrong_marker_series_names_mode_power_and_values(self, capout, monkeypatch):
        marker_series = cubics.marker_series

        def off_at_z5(order):  # only the collapse check asks for order 24
            s = marker_series(order)
            return s + ZSeries([0] * 5 + [T], order, s.ring) if order == 24 else s

        monkeypatch.setattr(cubics, "marker_series", off_at_z5)
        self._only_failure(
            capout,
            6,
            "FAIL half-length-collapse  (bivariate mode, at n=5: kernel 71 + 64*t + 2*t^2 vs solver 71 + 65*t + 2*t^2)",
        )

    def test_wrong_transformed_cubic_names_power_and_residual(self, capout, monkeypatch):
        transformed_cubic = cubics.transformed_cubic

        def plus_2_z5():
            polys = [list(p) for p in transformed_cubic().coeff_polys]
            polys[0] += [0, 0, 2]
            return AlgEquation(polys, QQ)

        monkeypatch.setattr(cubics, "transformed_cubic", plus_2_z5)
        self._only_failure(capout, 7, "FAIL transformed-cubic  (at Z^5: residual 2)")

    def test_wrong_ode_input_names_power_and_residual(self, capout, monkeypatch):
        ode_residual = holonomic.ode_residual
        monkeypatch.setattr(holonomic, "ode_residual", lambda s: ode_residual(s + ZSeries([0, 0, 0, 1], s.order, QQ)))
        self._only_failure(capout, 9, "FAIL ode-residual  (at z^2: residual 48)")

    def test_wrong_boundary_constant_names_mode_power_and_values(self, capout, monkeypatch):
        boundary_constants = kernel.boundary_constants

        def k0_off_at_z6(order, mode):
            consts = boundary_constants(order, mode)
            if mode is kernel.GFMode.BIVARIATE:
                consts["k0"] += ZSeries([0] * 6 + [T], order, QT)
            return consts

        monkeypatch.setattr(kernel, "boundary_constants", k0_off_at_z6)
        self._only_failure(
            capout, 10, "FAIL boundary-identity  (bivariate mode, at n=6: constants 6 + 5*t vs level-0 6 + 4*t)"
        )


class TestAsympt:
    def test_table(self, capout):
        code, out, _ = capout("asympt", "--n", "50", "--n", "100")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0].split() == ["n", "exact", "estimate", "ratio"]
        assert len(lines) == 3

    def test_json(self, capout):
        _, out, _ = capout("asympt", "--n", "50", "--format", "json")
        payload = json.loads(out)
        assert payload[0]["n"] == 50
        assert 0.8 < payload[0]["ratio"] < 1.2


    def test_past_the_int_to_str_digit_limit(self, capout):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        before = get_limit() if get_limit else None
        code, out, _ = capout("asympt", "--n", "7000")
        assert code == 0
        assert (get_limit() if get_limit else None) == before  # lifted inside the command only
        exact = out.splitlines()[1].split()[1]
        want = holonomic.extend([1, 1, 2, 6], 7000)[7000]
        if get_limit:
            sys.set_int_max_str_digits(0)
        try:
            assert exact == str(want)
        finally:
            if get_limit:
                sys.set_int_max_str_digits(before)

    def test_smallest_n(self, capout):
        code, out, _ = capout("asympt", "--n", "1", "--n", "2")
        assert code == 0
        assert [line.split()[1] for line in out.splitlines()[1:]] == ["1", "2"]

    def test_cap_admitted(self):
        assert ASYMPT_CAP >= 13100


class TestRender:
    def test_stdout_svg(self, capout):
        code, out, _ = capout("render", "UUDR")
        assert code == 0
        assert out.startswith("<?xml")
        assert out.count("<line") == 5  # axis + 4 steps

    def test_output_file(self, capout, tmp_path):
        target = tmp_path / "path.svg"
        code, out, _ = capout("render", "UUDD", "-o", str(target))
        assert code == 0
        assert target.read_text().startswith("<?xml")

    def test_unwritable_output_exits_2(self, capout, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = capout("render", "UUDD", "-o", str(target))
        assert code == 2
        assert out == ""
        assert "cannot write" in err and "Traceback" not in err

    def test_invalid_word(self, capout):
        code, _, err = capout("render", "UR")
        assert code == 2
        assert "UpRed" in err

    def test_word_past_the_cap_names_the_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["render", "U" * (RENDER_CAP + 1)])
        assert exc.value.code == 2
        assert f"at most {RENDER_CAP}" in capsys.readouterr().err


class TestFlagErrors:
    def test_bad_t_eval(self, capout):
        with pytest.raises(SystemExit) as exc:
            run(["count", "4", "0", "--t-eval", "nope"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--order", "0"],
        ["series", "--order", "-3", "--half-length"],
        ["bivariate", "--order", "0"],
        ["levels", "-1"],
        ["levels", "2", "--order", "0"],
        ["count", "-1", "0"],
        ["count", "4", "-1"],
        ["count", "4", "0", "--t-eval", "1/0"],
        ["verify", "--order", "0"],
        ["asympt", "--n", "0"],
        ["asympt", "--n", str(10**9)],
        ["asympt", "--n", str(ASYMPT_CAP + 1)],
        ["series", "--order", "ten"],
        ["series", "--order", str(SERIES_CAP + 1)],
        ["series", "--order", str(SERIES_CAP + 1), "--half-length"],
        ["bivariate", "--order", str(BIVARIATE_CAP + 1)],
        ["levels", "2", "--order", str(LEVELS_CAP + 1)],
        ["levels", str(LEVELS_CAP + 1)],
        ["count", str(COUNT_CAP + 1), "0"],
        ["count", "4", str(COUNT_CAP + 1)],
        ["verify", "--order", str(ORACLE_CAP + 1)],
        ["verify", "--order", "30"],
        ["render", "UD", "--unit-px", str(UNIT_PX_CAP + 1)],
        ["render", "UD", "--unit-px", "0"],
        ["render", "UD", "--unit-px", "-3"],
        ["count", "4", "0", "--t-eval", "1e99999999"],
        ["count", "4", "0", "--t-eval", "1/" + "9" * (T_EVAL_DIGITS + 1)],
        ["render", "U" * (RENDER_CAP + 1)],
        ["render", "UR" * RENDER_CAP],
        ["render", "UD", "--format", "json"],
    ],
)
def test_out_of_range_sizes_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err


AT_CAP = {
    "series-order": ["series", "--order", str(SERIES_CAP)],
    "series-half-length-order": ["series", "--order", str(SERIES_CAP), "--half-length"],
    "bivariate-order": ["bivariate", "--order", str(BIVARIATE_CAP)],
    "levels-order": ["levels", "2", "--order", str(LEVELS_CAP)],
    "levels-level": ["levels", str(LEVELS_CAP)],
    "count-length": ["count", str(COUNT_CAP), "0"],
    "count-level": ["count", "4", str(COUNT_CAP)],
    "verify-order": ["verify", "--order", str(ORACLE_CAP)],
    "asympt-n": ["asympt", "--n", str(ASYMPT_CAP)],
    "render-unit-px": ["render", "UD", "--unit-px", str(UNIT_PX_CAP)],
    "t-eval-digits": ["count", "4", "0", "--t-eval", "9" * T_EVAL_DIGITS + "/7"],
    "render-word": ["render", "U" * RENDER_CAP],
}


@pytest.mark.parametrize("argv", AT_CAP.values(), ids=AT_CAP.keys())
def test_size_at_cap_passes_validation(argv):
    """Parsing only: the work at a cap takes seconds.  Each cap + 1 is in
    test_out_of_range_sizes_exit_2."""
    assert build_parser().parse_args(argv).fn is not None


def test_caps_admit_the_benchmark_sizes():
    assert SERIES_CAP >= 303 and ORACLE_CAP >= 18


# Tokens for the argv fuzz.  The junk alphabet has no "o" and no "/", so a
# generated argv can never name an output file (-o, --output).
_INTS = st.integers(min_value=-3, max_value=8).map(str) | st.sampled_from(
    [str(c + 1) for c in (SERIES_CAP, BIVARIATE_CAP, LEVELS_CAP, COUNT_CAP, ORACLE_CAP, ASYMPT_CAP, UNIT_PX_CAP)]
    + [str(10**12), "-" + str(10**12)]
)
_WORDS = st.sampled_from(
    ["--order", "--format", "--t-eval", "--half-length", "--n", "--unit-px", "-h",
     "json", "tsv", "text", "track", "zero", "one", "1/2", "-3/4", "1/0", "0.5", "1e999999",
     "UUDR", "UDUD", "UR", "", "--", "-"]
)
_JUNK = st.text(alphabet="UDRabc019-=., ", max_size=5)
_ARGV = st.tuples(
    st.sampled_from(["count", "series", "bivariate", "levels", "verify", "asympt", "render", "frob"]),
    st.lists(st.one_of(_INTS, _WORDS, _JUNK), max_size=5),
).map(lambda parts: [parts[0], *parts[1]])


@settings(max_examples=150, deadline=None)
@given(argv=_ARGV)
def test_argv_fuzz_exits_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [["bivariate", "--order", "30"], ["verify", "--order", "5", "--format", "json"], ["render", "UUDR"]],
    ids=["bivariate", "verify-json", "render"],
)
def test_closed_pipe_ends_quietly_with_exit_0(argv):
    """As in `skewdyck bivariate --order 200 | head -1`: the reader is gone,
    here before the first write, so the outcome does not depend on timing."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skewdyck", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0
