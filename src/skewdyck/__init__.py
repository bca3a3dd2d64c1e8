"""Exact enumeration of skew Dyck paths in the red-down-step encoding,
with the up-down-red pattern forbidden or counted by a marker variable.

Independent computational routes (brute force, layered automaton, kernel
method, algebraic series solver, holonomic recurrence and ODE,
singularity-analysis asymptotics) are cross-verified against each other
and against vendored golden values.

Each route lives in its own submodule (``skewdyck.paths``,
``skewdyck.cubics``, ...), imported by name; ``import skewdyck`` loads
none of them, so the CLI loads only the modules a subcommand runs.
"""

__version__ = "0.1.0"
