"""Exact enumeration of skew Dyck paths in the red-down-step encoding,
with the up-down-red pattern forbidden or counted by a marker variable.

Independent computational routes (brute force, layered automaton, kernel
method, algebraic series solver, holonomic recurrence and ODE,
singularity-analysis asymptotics) are cross-verified against each other
and against vendored golden values.
"""

from .automaton import Layer, count, layer_series
from .cubics import avoidance_series, marker_series
from .kernel import GFMode, boundary_constants, kernel_root, level_gf
from .paths import SkewPath, Step, enumerate_paths, render_svg, validate
from .rings import QQ, QT, TPoly
from .series import AlgEquation, ZSeries, solve_algebraic

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
