"""Start-up cost: what `import skewdyck` and `import skewdyck.cli` load.

The CLI imports each subcommand's modules when the subcommand runs, and
the package root imports no submodule.  The footprint tests run fresh
interpreters, because this test process has long since loaded every
module, and run them with `-S`, so that a module a site `.pth` file
preloads cannot hide an import.
"""

import importlib
import subprocess
import sys

import pytest
from conftest import SRC_ENV

import skewdyck
from skewdyck import paths

# Modules that no subcommand needs before it runs.
HEAVY = {
    f"skewdyck.{m}"
    for m in ("verify", "golden", "automaton", "kernel", "cubics", "series", "holonomic", "asymptotics")
} | {"dataclasses", "inspect", "fractions", "decimal", "json", "typing", "importlib.resources"}

# The names the package root once re-exported, and the submodule that
# defines each.
PUBLIC = {
    "AlgEquation": "series",
    "GFMode": "kernel",
    "QQ": "rings",
    "QT": "rings",
    "TPoly": "rings",
    "ZSeries": "series",
    "avoidance_series": "cubics",
    "boundary_constants": "kernel",
    "count": "automaton",
    "kernel_root": "kernel",
    "level_gf": "kernel",
    "marker_series": "cubics",
    "render_svg": "paths",
    "solve_algebraic": "series",
    "validate": "paths",
}


def _python(code):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=SRC_ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _modules_after(code):
    """The modules loaded after running `code` in a fresh interpreter."""
    proc = _python(code + "\nimport sys\nsys.stderr.write(' '.join(sys.modules))")
    return proc, set(proc.stderr.split())


def test_cli_import_loads_no_compute_module():
    _, bare = _modules_after("pass")
    _, loaded = _modules_after("import skewdyck.cli")
    assert not (loaded - bare) & HEAVY


def test_cli_import_loads_neither_paths_nor_rings():
    _, loaded = _modules_after("import skewdyck.cli")
    assert not loaded & {"skewdyck.paths", "skewdyck.rings"}


def test_verify_cap_is_the_oracles():
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "skewdyck", "verify", "--order", "25"],
        env=SRC_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        "skewdyck verify: error: argument --order: 25 is out of range: must be between 1 and 24\n"
    )
    assert paths.ORACLE_CAP is skewdyck.ORACLE_CAP


def test_package_import_loads_no_submodule():
    _, loaded = _modules_after("import skewdyck")
    assert not [m for m in loaded if m.startswith("skewdyck.")]


@pytest.mark.parametrize(
    "flags, stdout",
    [(["--half-length"], "1 1 2 6 20 71 262 994 3852\n"), ([], "1 0 1 0 2 0 6 0 20\n")],
    ids=["half-length", "full"],
)
def test_series_loads_only_the_recurrence(flags, stdout):
    proc, loaded = _modules_after(f"from skewdyck import cli\ncli.run(['series', '--order', '9', *{flags!r}])")
    assert proc.stdout == stdout
    assert "skewdyck.holonomic" in loaded
    others = ("rings", "series", "cubics", "kernel", "golden", "automaton", "verify")
    assert not loaded & {f"skewdyck.{m}" for m in others}


def test_count_loads_no_series():
    proc, loaded = _modules_after("from skewdyck import cli\ncli.run(['count', '0', '0'])")
    assert proc.stdout == "[1]\n"
    assert "skewdyck.series" not in loaded


@pytest.fixture(scope="module")
def asympt_loaded():
    """The modules that one `asympt --n 50` run loads, shared by the asympt guards."""
    proc, loaded = _modules_after("from skewdyck import cli\ncli.run(['asympt', '--n', '50'])")
    assert proc.stdout.startswith("n  exact  estimate  ratio\n50  ")
    return loaded


def test_asympt_loads_no_series_or_cubic(asympt_loaded):
    assert not asympt_loaded & {"skewdyck.series", "skewdyck.cubics"}


def test_asympt_loads_no_golden(asympt_loaded):
    # The recurrence starts from s_0 = 1, not from the vendored terms.
    assert "skewdyck.golden" not in asympt_loaded


def test_asympt_loads_no_ring(asympt_loaded):
    assert "skewdyck.rings" not in asympt_loaded


def test_verify_loads_no_dataclasses_or_resource_reader():
    proc, loaded = _modules_after("from skewdyck import cli\ncli.run(['verify', '--order', '5'])")
    assert proc.stdout.count("PASS ") == 12
    assert not loaded & {"dataclasses", "importlib.resources"}


def test_verify_loads_no_typing():
    proc, loaded = _modules_after("from skewdyck import cli\ncli.run(['verify', '--order', '5'])")
    assert proc.stdout.count("PASS ") == 12
    assert "typing" not in loaded


def test_console_script_entry_point():
    proc = _python(
        "import sys\nfrom skewdyck.cli import main\n"
        "sys.argv = ['skewdyck', 'series', '--order', '9', '--half-length']\nmain()"
    )
    assert proc.stdout == "1 1 2 6 20 71 262 994 3852\n"


class TestLazyPackage:
    """Each name is reached through the submodule that defines it; the
    package root binds none of them."""

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_is_the_defining_modules_object(self, name):
        module = importlib.import_module(f"skewdyck.{PUBLIC[name]}")
        # an instance such as QQ answers for its class
        assert getattr(module, name).__module__ == module.__name__
        assert not hasattr(skewdyck, name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
            skewdyck.frobnicate
