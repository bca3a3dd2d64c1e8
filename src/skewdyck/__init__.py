"""Exact enumeration of skew Dyck paths in the red-down-step encoding,
with the up-down-red pattern forbidden or counted by a marker variable.

Independent computational routes (brute force, layered automaton, kernel
method, algebraic series solver, holonomic recurrence and ODE,
singularity-analysis asymptotics) are cross-verified against each other
and against vendored golden values.

The names in ``__all__`` are imported from their submodules on first
access (PEP 562), so ``import skewdyck`` loads no submodule and the CLI
loads only the modules a subcommand runs.
"""

__version__ = "0.1.0"

__all__ = [
    "AlgEquation",
    "GFMode",
    "Layer",
    "QQ",
    "QT",
    "SkewPath",
    "Step",
    "TPoly",
    "ZSeries",
    "avoidance_series",
    "boundary_constants",
    "count",
    "enumerate_paths",
    "kernel_root",
    "layer_series",
    "level_gf",
    "marker_series",
    "render_svg",
    "solve_algebraic",
    "validate",
]

# The submodule that defines each name in __all__.
_SOURCE = {
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


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
