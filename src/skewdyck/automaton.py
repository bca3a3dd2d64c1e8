"""Exact counting by dynamic programming over the four-layer automaton.

States are pairs (layer, level).  Layer F holds the start and everything
reached by an up step, G is reached by a down-black step out of F (the
"down right after up" layer), H by any other down-black step, K by a
down-red step.  The red edge out of G completes the up, down-black,
down-red pattern and carries the marker t; there is no up edge out of K
and no red edge out of F, which encodes the two forbidden factors.

Weights are marker polynomials with arbitrary-precision integer
coefficients; counts leave 64-bit range well before length 60.  The
automaton always tracks t: the count with the pattern forbidden is the
marker polynomial at t = 0 and the count ignoring it is its value at
t = 1, so callers specialise a finished count instead of running a
separate forbidding or totalling automaton.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator

from .rings import QT, T, TPoly


class Layer(enum.Enum):
    F = "F"
    G = "G"
    H = "H"
    K = "K"


_ONE = TPoly(1)


def initial_state() -> dict[tuple[Layer, int], TPoly]:
    return {(Layer.F, 0): _ONE}


def step(state: dict[tuple[Layer, int], TPoly]) -> dict[tuple[Layer, int], TPoly]:
    """One automaton step; the G -> K edge carries the marker t."""
    new = {}

    def add(layer, level, weight):
        key = (layer, level)
        if key in new:
            new[key] = new[key] + weight
        else:
            new[key] = weight

    for (layer, level), w in state.items():
        if level < 0:
            raise ValueError("state vector contains a negative level")
        if layer in (Layer.F, Layer.G, Layer.H):
            add(Layer.F, level + 1, w)
        if level > 0:
            if layer is Layer.F:
                add(Layer.G, level - 1, w)
            else:
                add(Layer.H, level - 1, w)
            if layer is Layer.G:
                add(Layer.K, level - 1, w * T)
            elif layer in (Layer.H, Layer.K):
                add(Layer.K, level - 1, w)
    return new


def walk(length: int) -> Iterator[dict[tuple[Layer, int], TPoly]]:
    """The states after 0, 1, ..., length steps, each computed once."""
    state = initial_state()
    yield state
    for _ in range(length):
        state = step(state)
        yield state


def run(length: int) -> dict[tuple[Layer, int], TPoly]:
    for state in walk(length):
        pass
    return state


def by_level(state: dict[tuple[Layer, int], TPoly]) -> dict[int, TPoly]:
    """The weights of a state summed over its layers, keyed by level."""
    out = {}
    for (_, level), w in state.items():
        out[level] = out[level] + w if level in out else w
    return out


def count(length: int, end_level: int) -> TPoly:
    """Marker polynomial of all paths of the given length ending at
    end_level; evaluate it at t = 0 for the pattern forbidden and at
    t = 1 for the pattern ignored."""
    if length < 0 or end_level < 0:
        raise ValueError("length and end level must be nonnegative")
    return by_level(run(length)).get(end_level, TPoly())


def layer_series(layer: Layer, level: int, order: int):
    """Generating series (a ZSeries) of one (layer, level) cell: the
    coefficient of z^m is its marker-polynomial weight after m steps."""
    from .series import ZSeries  # imported here: count never builds a series

    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [state.get((layer, level), TPoly()) for state in walk(order - 1)]
    return ZSeries(coeffs, order, QT)
