import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from conftest import SRC_ENV
from hypothesis import given, settings, strategies as st

from skewdyck import asymptotics, automaton, cubics, golden, holonomic, kernel, paths, verify
from skewdyck.cli import (
    ASYMPT_CAP,
    ASYMPT_NS_CAP,
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
from skewdyck.rings import QT, T, TPoly
from skewdyck.series import ZSeries


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

    # `series` runs the recurrence; these compare it with the Newton root
    # and the kernel root, the two engines it replaced.
    @pytest.mark.parametrize("n", [1, 2, 9, 300, 301])
    def test_half_length_is_the_newton_root(self, capout, n):
        _, out, _ = capout("series", "--order", str(n), "--half-length")
        assert out.split() == [str(c) for c in cubics.avoidance_series(n).integer_coefficients()]

    @pytest.mark.parametrize("n", [1, 2, 9, 300, 301])
    def test_full_length_is_the_kernel_level_0_series(self, capout, n):
        _, out, _ = capout("series", "--order", str(n))
        gf = kernel.level_gf(0, n, kernel.GFMode.UNIVARIATE)
        assert out.split() == [str(c) for c in gf.integer_coefficients()]

    def test_at_the_cap(self, capout):
        _, half, _ = capout("series", "--order", str(SERIES_CAP), "--half-length")
        _, full, _ = capout("series", "--order", str(SERIES_CAP))
        half, full = half.split(), full.split()
        assert len(half) == len(full) == SERIES_CAP
        assert full[::2] == half[: SERIES_CAP // 2]
        assert set(full[1::2]) == {"0"}
        assert half[:301] == [str(c) for c in cubics.avoidance_series(301).integer_coefficients()]


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

    @pytest.mark.parametrize("length, level", [(0, 0), (4, 0), (10, 0), (9, 3), (12, 2), (5, 7)])
    def test_printed_form_is_the_polynomials_str(self, capout, length, level):
        _, out, _ = capout("count", str(length), str(level))
        assert out == f"{automaton.count(length, level)}\n"

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
        _, half_out, _ = capout("levels", "2", "--order", "12", "--half-length")
        assert half_out == "[0] [1] [3] [9 1] [29 8] [100 45]\n"
        _, half_json, _ = capout("levels", "2", "--order", "12", "--half-length", "--format", "json")
        _, full_json, _ = capout("levels", "2", "--order", "12", "--format", "json")
        assert json.loads(half_json)["sequence"] == json.loads(full_json)["sequence"][0::2]


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
        assert lines[0] == "FAIL dp-vs-oracle  (mismatch at length 4 level 0: automaton [3] vs oracle [2 1])"
        assert lines[5] == "FAIL level-gf-vs-dp  (k=0 m=4: kernel [2 1] vs automaton [3])"
        assert len(lines) == 12
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i not in (0, 5))
        assert err == "2 check(s) failed\n"

    @pytest.mark.parametrize(
        "accessor, n, wrong, line_no, line",
        [
            ("utilde_display", 6, -3, 2, "FAIL kernel-root-display  (at n=6: kernel -2 vs golden -3)"),
            # s_7 lies past the kernel-root display, which reads s_0..s_6
            ("a128729_terms", 7, 99, 3, "FAIL series-vs-golden  (at n=7: solver 994 vs golden 99)"),
            (
                "a128728_rows",
                5,
                [71, 64, 3],
                4,
                "FAIL bivariate-vs-golden  (at n=5: solver [71 64 2] vs golden [71 64 3])",
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
        assert lines[9] == "FAIL ode-residual  (at n=4: recurrence 21 vs kernel 20)"
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i not in (8, 9))
        assert err == "2 check(s) failed\n"

    @pytest.mark.parametrize("path", ["forked", "serial"])
    def test_mistranscribed_ode_fails_the_recurrence_checks(self, capout, monkeypatch, path):
        ode = [list(poly) for poly in holonomic.ODE]
        ode[2][1] += 1
        monkeypatch.setattr(holonomic, "ODE", tuple(map(tuple, ode)))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(verify, "_other_cpus", lambda: os.sched_getaffinity(0) if path == "forked" else set())
        code, out, err = capout("verify", "--order", "8")
        assert code == 1
        assert forks == ([1] if path == "forked" else [])
        step = "(recurrence step at n=-2 is not integral (remainder 23))"
        lines = out.splitlines()
        assert [lines[i] for i in (8, 9, 11)] == [
            f"FAIL recurrence-vs-solver  {step}",
            f"FAIL ode-residual  {step}",
            f"FAIL asymptotics  {step}",
        ]
        assert len(lines) == 12
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i not in (8, 9, 11))
        assert err == "3 check(s) failed\n"

    @staticmethod
    def _only_failure(capout, line_no, line):
        code, out, err = capout("verify", "--order", "8")
        assert code == 1
        lines = out.splitlines()
        assert lines[line_no] == line
        assert len(lines) == 12
        assert all(line.startswith("PASS") for i, line in enumerate(lines) if i != line_no)
        assert err == "1 check(s) failed\n"

    def test_level_missing_from_the_oracle_fails_its_check(self, capout, monkeypatch):
        udr_profile = paths.udr_profile

        def without_length_4_level_2(max_length):
            hist = udr_profile(max_length)
            del hist[4][2]
            return hist

        monkeypatch.setattr(paths, "udr_profile", without_length_4_level_2)
        self._only_failure(capout, 0, "FAIL dp-vs-oracle  (mismatch at length 4 level 2: automaton [3] vs oracle [0])")

    def test_wrong_kernel_root_names_mode_power_and_residual(self, capout, monkeypatch):
        kernel_root = kernel.kernel_root

        def off_at_z7(order, mode):  # only the residual check asks for order 64
            root = kernel_root(order, mode)
            return root + ZSeries([0] * 7 + [3], order, root.ring) if order == 64 else root

        monkeypatch.setattr(kernel, "kernel_root", off_at_z7)
        self._only_failure(capout, 1, "FAIL kernel-residual  (univariate mode, at z^7: residual 3)")

    def test_pass_detail_reads_the_order_checked(self, capout, monkeypatch):
        kernel_root = kernel.kernel_root

        def halved(order, mode):  # only the residual check asks for order 64
            root = kernel_root(order, mode)
            return root.truncate(32) if order == 64 else root

        monkeypatch.setattr(kernel, "kernel_root", halved)
        code, out, _ = capout("verify", "--order", "8")
        assert code == 0
        assert out.splitlines()[1] == "PASS kernel-residual  (both modes, mod z^32)"

    def test_wrong_marker_series_names_mode_power_and_values(self, capout, monkeypatch):
        marker_series = cubics.marker_series

        def off_at_z5(order):  # only the collapse check asks for order 24
            s = marker_series(order)
            return s + ZSeries([0] * 5 + [T], order, s.ring) if order == 24 else s

        monkeypatch.setattr(cubics, "marker_series", off_at_z5)
        self._only_failure(
            capout,
            6,
            "FAIL half-length-collapse  (bivariate mode, at n=5: kernel [71 64 2] vs solver [71 65 2])",
        )

    def test_wrong_transformed_cubic_names_power_and_residual(self, capout, monkeypatch):
        level_gf = kernel.level_gf

        def off_at_z10(k, order, mode):  # only the transformed-cubic check asks for order 60
            gf = level_gf(k, order, mode)
            return gf + ZSeries([0] * 10 + [2], order, gf.ring) if order == 60 else gf

        monkeypatch.setattr(kernel, "level_gf", off_at_z10)
        self._only_failure(capout, 7, "FAIL transformed-cubic  (at Z^5: residual 2)")

    def test_wrong_kernel_level_0_term_names_index_and_values(self, capout, monkeypatch):
        level_gf = kernel.level_gf
        # s_0, s_13 and s_28, the first, a middle and the last term the check reads
        for n, want in [(0, 1), (13, 4129012), (28, 12091508185766912)]:

            def off_at_z2n(k, order, mode):  # only the ODE check asks for order 57
                gf = level_gf(k, order, mode)
                return gf + ZSeries([0] * 2 * n + [3], order, gf.ring) if order == 57 else gf

            with monkeypatch.context() as m:
                m.setattr(kernel, "level_gf", off_at_z2n)
                self._only_failure(capout, 9, f"FAIL ode-residual  (at n={n}: recurrence {want} vs kernel {want + 3})")

    def test_wrong_boundary_constant_names_mode_power_and_values(self, capout, monkeypatch):
        boundary_constants = kernel.boundary_constants

        def k0_off_at_z6(order, mode):
            consts = boundary_constants(order, mode)
            if mode is kernel.GFMode.BIVARIATE:
                consts["k0"] += ZSeries([0] * 6 + [T], order, QT)
            return consts

        monkeypatch.setattr(kernel, "boundary_constants", k0_off_at_z6)
        self._only_failure(
            capout, 10, "FAIL boundary-identity  (bivariate mode, at n=6: constants [6 5] vs level-0 [6 4])"
        )

    def test_wrong_closed_form_z0_names_both_values(self, capout, monkeypatch):
        # The closed form of z0 is 1/GROWTH, the constant every estimate reads.
        monkeypatch.setattr(asymptotics, "GROWTH", asymptotics.GROWTH * (1 + 1e-9))
        self._only_failure(
            capout,
            11,
            "FAIL asymptotics  (numeric z0 0.21748225867393306 disagrees with 1/GROWTH 0.21748225845645078)",
        )

    def test_wrong_amplitude_names_ratio_and_window(self, capout, monkeypatch):
        monkeypatch.setattr(asymptotics, "AMPLITUDE", asymptotics.AMPLITUDE * 1.02)
        ratio = asymptotics.coefficient_ratio(1000, holonomic.extend(holonomic.INITIAL, 1000))
        assert 0.978 < ratio < 0.98
        self._only_failure(capout, 11, f"FAIL asymptotics  (ratio at n=1000 is {ratio} outside [0.99, 1.01])")

    def test_growing_deviations_fail(self, capout, monkeypatch):
        monkeypatch.setattr(asymptotics, "SAMPLE_NS", asymptotics.SAMPLE_NS[::-1])
        coeffs = holonomic.extend(holonomic.INITIAL, max(asymptotics.SAMPLE_NS))
        devs = [abs(asymptotics.coefficient_ratio(n, coeffs) - 1.0) for n in asymptotics.SAMPLE_NS]
        self._only_failure(capout, 11, f"FAIL asymptotics  (deviations not shrinking: {devs})")


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

    def test_one_n_past_the_count_cap_exits_2_before_any_work(self, capsys, monkeypatch):
        monkeypatch.setattr(holonomic, "extend", None)  # any work would raise a TypeError
        with pytest.raises(SystemExit) as exc:
            run(["asympt", *["--n", "5"] * (ASYMPT_NS_CAP + 1)])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.splitlines() == [
            "usage: skewdyck asympt [-h] [--n N] [--format {json,text,tsv}]",
            f"skewdyck asympt: error: argument --n: at most {ASYMPT_NS_CAP} values",
        ]


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
        code, out, err = capout("render", "UD", "-o", "")  # an empty path is a path, not stdout
        assert (code, out, err) == (2, "", "cannot write : No such file or directory\n")

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

    @pytest.mark.parametrize("value", ["1_000", "1/1_0", "0.5_0"])
    def test_t_eval_with_an_underscore_exits_2(self, value, capsys):
        # Fraction reads "1_000" from Python 3.11 on only; every version rejects it.
        with pytest.raises(SystemExit) as exc:
            run(["count", "4", "0", "--t-eval", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --t-eval: --t-eval must be track, zero, one, or a rational, not {value!r}\n"
        )

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
        ["asympt", *["--n", "5"] * (ASYMPT_NS_CAP + 1)],
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
    "asympt-n-count": ["asympt", *["--n", str(ASYMPT_CAP)] * ASYMPT_NS_CAP],
    "render-unit-px": ["render", "UD", "--unit-px", str(UNIT_PX_CAP)],
    "t-eval-digits": ["count", "4", "0", "--t-eval", "9" * T_EVAL_DIGITS + "/7"],
    "render-word": ["render", "U" * RENDER_CAP],
}


@pytest.mark.parametrize("argv", AT_CAP.values(), ids=AT_CAP.keys())
def test_size_at_cap_passes_validation(argv):
    """Parsing only: the work at most caps takes seconds (TestSeries runs
    series at its cap).  Each cap + 1 is in test_out_of_range_sizes_exit_2."""
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
    [["bivariate", "--order", "30"], ["verify", "--order", "5", "--format", "json"], ["render", "UUDR"], ["--help"]],
    ids=["bivariate", "verify-json", "render", "help"],
)
def test_closed_pipe_ends_quietly_with_exit_0(argv):
    """As in `skewdyck bivariate --order 200 | head -1`: the reader is gone,
    here before the first write, so the outcome does not depend on timing."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "skewdyck", *argv], stdout=write_end, stderr=subprocess.PIPE, env=SRC_ENV, timeout=60
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0
