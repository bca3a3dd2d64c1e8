"""Exact counting by dynamic programming over the four-layer automaton.

States are pairs (layer, level), the layer one of the letters F, G, H, K
whose edges EDGES lists.  Weights are marker polynomials with
arbitrary-precision integer coefficients; counts leave 64-bit range well
before length 60.  The automaton always tracks t: the count with the
pattern forbidden is the marker polynomial at t = 0 and the count
ignoring it is its value at t = 1, so callers specialise a finished
count instead of running a separate forbidding or totalling automaton.
"""

from __future__ import annotations

from collections.abc import Iterator

from .rings import T, TPoly

# Out-edges of each layer as (target, level change, marked).  F holds the
# start and everything reached by U, G is reached by D out of F (D right
# after U), H by any other D, K by R.  The marked edge G -> K completes
# the pattern UDR and carries the marker t.  Two edges are missing: F has
# no R edge, which forbids the factor UR, and K has no U edge, which
# forbids RU.  A down edge is taken only from a level above 0.
EDGES = {
    "F": (("F", 1, False), ("G", -1, False)),
    "G": (("F", 1, False), ("H", -1, False), ("K", -1, True)),
    "H": (("F", 1, False), ("H", -1, False), ("K", -1, False)),
    "K": (("H", -1, False), ("K", -1, False)),
}


def step(state: dict[tuple[str, int], TPoly]) -> dict[tuple[str, int], TPoly]:
    """One automaton step along EDGES; a marked edge multiplies by t."""
    new = {}
    for (layer, level), w in state.items():
        if level < 0:
            raise ValueError("state vector contains a negative level")
        for target, change, marked in EDGES[layer]:
            if level + change < 0:
                continue
            key = (target, level + change)
            weight = w * T if marked else w
            old = new.get(key)
            new[key] = weight if old is None else old + weight
    return new


def walk(length: int) -> Iterator[dict[tuple[str, int], TPoly]]:
    """The states after 0, 1, ..., length steps, each computed once."""
    state = {("F", 0): TPoly(1)}
    yield state
    for _ in range(length):
        state = step(state)
        yield state


def run(length: int) -> dict[tuple[str, int], TPoly]:
    for state in walk(length):
        pass
    return state


def by_level(state: dict[tuple[str, int], TPoly]) -> dict[int, TPoly]:
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
