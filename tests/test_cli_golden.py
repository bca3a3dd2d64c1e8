"""Golden stdout for every subcommand in every --format: the exact bytes
each command prints, so a change to the output code shows up here."""

import pytest

from skewdyck.cli import run

# s_472, the first half-length count whose estimate overflows a double.
S472 = (
    "2808672457772759253820016987604866995040396947911308032293677153338782174315240"
    "7603894799236083334371643707573902813361064400216705983139978305446512740779227"
    "0996465708568070373930494851520872788664769289957773524802224151456220873691798"
    "662048328345918588871508604042379872635485192825264359422892381170335808"
)

VERIFY_ROWS = [
    ("dp-vs-oracle", "all lengths <= 8"),
    ("kernel-residual", "both modes, mod z^64"),
    ("kernel-root-display", ""),
    ("series-vs-golden", "20 terms"),
    ("bivariate-vs-golden", ""),
    ("level-gf-vs-dp", "k <= 6, m <= 16"),
    ("half-length-collapse", "both modes, 24 half-length terms"),
    ("transformed-cubic", "residual mod Z^30"),
    ("recurrence-vs-solver", "agreement to n=200"),
    ("ode-residual", "zero mod z^28"),
    ("boundary-identity", "both modes, mod z^20"),
    ("asymptotics", "ratio(1000)=0.998471"),
]

COMMANDS = {
    "count": ["count", "10", "0"],
    "count-zero": ["count", "5", "7"],
    "count-half": ["count", "10", "0", "--t-eval", "1/2"],
    "series": ["series", "--order", "9"],
    "series-half": ["series", "--order", "9", "--half-length"],
    "bivariate": ["bivariate", "--order", "7"],
    "levels": ["levels", "1", "--order", "6"],
    "levels-zero": ["levels", "2", "--order", "8", "--t-eval", "zero"],
    "levels-neg": ["levels", "2", "--order", "8", "--t-eval=-7/3"],
    "verify": ["verify", "--order", "8"],
    "asympt": ["asympt", "--n", "1", "--n", "50", "--n", "472"],
}

GOLDEN = [
    ("count", "text", "[71 64 2]\n"),
    ("count", "json", '{"count": "[71 64 2]", "t_mode": "track"}\n'),
    ("count", "tsv", "[71 64 2]\n"),
    # the zero polynomial, and a Fraction cell from a rational --t-eval
    ("count-zero", "text", "[0]\n"),
    ("count-zero", "json", '{"count": "[0]", "t_mode": "track"}\n'),
    ("count-zero", "tsv", "[0]\n"),
    ("count-half", "text", "207/2\n"),
    ("count-half", "json", '{"count": "207/2", "t_mode": "1/2"}\n'),
    ("count-half", "tsv", "207/2\n"),
    ("series", "text", "1 0 1 0 2 0 6 0 20\n"),
    (
        "series",
        "json",
        '{"sequence": ["1", "0", "1", "0", "2", "0", "6", "0", "20"], '
        '"variable": "z", "t_mode": "zero"}\n',
    ),
    ("series", "tsv", "1\t0\t1\t0\t2\t0\t6\t0\t20\n"),
    ("series-half", "text", "1 1 2 6 20 71 262 994 3852\n"),
    (
        "series-half",
        "json",
        '{"sequence": ["1", "1", "2", "6", "20", "71", "262", "994", "3852"], '
        '"variable": "z(half)", "t_mode": "zero"}\n',
    ),
    ("series-half", "tsv", "1\t1\t2\t6\t20\t71\t262\t994\t3852\n"),
    ("bivariate", "text", "0: 1\n1: 1\n2: 2 1\n3: 6 4\n4: 20 16\n5: 71 64 2\n6: 262 261 20\n"),
    (
        "bivariate",
        "json",
        '{"sequence": [["1"], ["1"], ["2", "1"], ["6", "4"], ["20", "16"], '
        '["71", "64", "2"], ["262", "261", "20"]], "variable": "z(half)", "t_mode": "track"}\n',
    ),
    (
        "bivariate",
        "tsv",
        "0:\t1\n1:\t1\n2:\t2\t1\n3:\t6\t4\n4:\t20\t16\n5:\t71\t64\t2\n6:\t262\t261\t20\n",
    ),
    ("levels", "text", "[0] [1] [0] [2] [0] [5 1]\n"),
    (
        "levels",
        "json",
        '{"sequence": ["[0]", "[1]", "[0]", "[2]", "[0]", "[5 1]"], '
        '"variable": "z", "t_mode": "track"}\n',
    ),
    ("levels", "tsv", "[0]\t[1]\t[0]\t[2]\t[0]\t[5 1]\n"),
    # int cells, then Fraction cells (integral ones print as ints)
    ("levels-zero", "text", "0 0 1 0 3 0 9 0\n"),
    (
        "levels-zero",
        "json",
        '{"sequence": ["0", "0", "1", "0", "3", "0", "9", "0"], "variable": "z", "t_mode": "zero"}\n',
    ),
    ("levels-zero", "tsv", "0\t0\t1\t0\t3\t0\t9\t0\n"),
    ("levels-neg", "text", "0 0 1 0 3 0 20/3 0\n"),
    (
        "levels-neg",
        "json",
        '{"sequence": ["0", "0", "1", "0", "3", "0", "20/3", "0"], "variable": "z", "t_mode": "-7/3"}\n',
    ),
    ("levels-neg", "tsv", "0\t0\t1\t0\t3\t0\t20/3\t0\n"),
    (
        "verify",
        "text",
        "".join(f"PASS {name}  ({detail})\n" if detail else f"PASS {name}\n" for name, detail in VERIFY_ROWS),
    ),
    (
        "verify",
        "json",
        "["
        + ", ".join(f'{{"name": "{name}", "ok": true, "detail": "{detail}"}}' for name, detail in VERIFY_ROWS)
        + "]\n",
    ),
    ("verify", "tsv", "".join(f"PASS\t{name}\t{detail}\n" for name, detail in VERIFY_ROWS)),
    (
        "asympt",
        "text",
        "n  exact  estimate  ratio\n"
        "1  1  2.440329e+00  0.409780822\n"
        "50  1958493387627226832525942655880  2.019414e+30  0.969832309\n"
        "472  " + S472 + "  overflow  0.996762950\n",
    ),
    (
        "asympt",
        "json",
        '[{"n": 1, "exact": "1", "estimate": 2.440328941277163, "ratio": 0.4097808222020443}, '
        '{"n": 50, "exact": "1958493387627226832525942655880", '
        '"estimate": 2.0194144596638865e+30, "ratio": 0.9698323086946752}, '
        '{"n": 472, "exact": "' + S472 + '", "estimate": null, "ratio": 0.9967629496345053}]\n',
    ),
    (
        "asympt",
        "tsv",
        "n\texact\testimate\tratio\n"
        "1\t1\t2.440329e+00\t0.409780822\n"
        "50\t1958493387627226832525942655880\t2.019414e+30\t0.969832309\n"
        "472\t" + S472 + "\toverflow\t0.996762950\n",
    ),
]


@pytest.mark.parametrize("command,fmt,want", GOLDEN, ids=[f"{c}-{f}" for c, f, _ in GOLDEN])
def test_golden_stdout(command, fmt, want, capsys):
    assert run(COMMANDS[command] + ["--format", fmt]) == 0
    assert capsys.readouterr().out == want


# render writes SVG only, so it has no --format and its cases stand apart.
RENDER_GOLDEN = [
    (
        ["render", "UUDR"],
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="144" height="96" viewBox="0 0 144 96">\n'
        '<line x1="24" y1="72" x2="120" y2="72" stroke="#bbbbbb" stroke-dasharray="4 4" stroke-width="1"/>\n'
        '<line x1="24" y1="72" x2="48" y2="48" stroke="#000000" stroke-width="2" stroke-linecap="round"/>\n'
        '<line x1="48" y1="48" x2="72" y2="24" stroke="#000000" stroke-width="2" stroke-linecap="round"/>\n'
        '<line x1="72" y1="24" x2="96" y2="48" stroke="#000000" stroke-width="2" stroke-linecap="round"/>\n'
        '<line x1="96" y1="48" x2="120" y2="72" stroke="#cc0022" stroke-width="2" stroke-linecap="round"/>\n'
        '</svg>\n'
    ),
    (
        ["render", "UUDR", "--unit-px", "10"],
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="60" height="40" viewBox="0 0 60 40">\n'
        '<line x1="10" y1="30" x2="50" y2="30" stroke="#bbbbbb" stroke-dasharray="4 4" stroke-width="1"/>\n'
        '<line x1="10" y1="30" x2="20" y2="20" stroke="#000000" stroke-width="2" stroke-linecap="round"/>\n'
        '<line x1="20" y1="20" x2="30" y2="10" stroke="#000000" stroke-width="2" stroke-linecap="round"/>\n'
        '<line x1="30" y1="10" x2="40" y2="20" stroke="#000000" stroke-width="2" stroke-linecap="round"/>\n'
        '<line x1="40" y1="20" x2="50" y2="30" stroke="#cc0022" stroke-width="2" stroke-linecap="round"/>\n'
        '</svg>\n'
    ),
]


@pytest.mark.parametrize("argv,want", RENDER_GOLDEN, ids=["render", "render-unit-px-10"])
def test_render_golden_svg(argv, want, capsys):
    assert run(argv) == 0
    assert capsys.readouterr().out == want
