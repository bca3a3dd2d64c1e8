"""Start-up cost: what `import skewdyck` and `import skewdyck.cli` load.

The CLI imports each subcommand's modules when the subcommand runs, and
the package root imports no submodule.  The footprint tests run fresh
interpreters, because this test process has long since loaded every
module, and run them with `-S`, so that a module a site `.pth` file
preloads cannot hide an import.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewdyck

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

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
    "Layer": "automaton",
    "QQ": "rings",
    "QT": "rings",
    "SkewPath": "paths",
    "Step": "paths",
    "TPoly": "rings",
    "ZSeries": "series",
    "avoidance_series": "cubics",
    "boundary_constants": "kernel",
    "count": "automaton",
    "enumerate_paths": "paths",
    "kernel_root": "kernel",
    "layer_series": "automaton",
    "level_gf": "kernel",
    "marker_series": "cubics",
    "render_svg": "paths",
    "solve_algebraic": "series",
    "validate": "paths",
}


def _python(code):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=ENV, capture_output=True, text=True, timeout=60
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


def test_package_import_loads_no_submodule():
    _, loaded = _modules_after("import skewdyck")
    assert not [m for m in loaded if m.startswith("skewdyck.")]


def test_half_length_series_loads_only_its_route():
    proc, loaded = _modules_after("from skewdyck import cli\ncli.run(['series', '--order', '9', '--half-length'])")
    assert proc.stdout == "1 1 2 6 20 71 262 994 3852\n"
    assert "skewdyck.cubics" in loaded
    assert not loaded & {"skewdyck.kernel", "skewdyck.automaton", "skewdyck.verify"}


def test_count_loads_no_series():
    proc, loaded = _modules_after("from skewdyck import cli\ncli.run(['count', '0', '0'])")
    assert proc.stdout == "[1]\n"
    assert "skewdyck.series" not in loaded


def test_asympt_loads_no_series_or_cubic():
    proc, loaded = _modules_after("from skewdyck import cli\ncli.run(['asympt', '--n', '50'])")
    assert proc.stdout.startswith("n  exact  estimate  ratio\n50  ")
    assert not loaded & {"skewdyck.series", "skewdyck.cubics"}


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
