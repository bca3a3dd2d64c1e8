"""Vendored golden values: published series displays and OEIS terms.

Each accessor returns a fresh list built from a literal with its
provenance; nothing is read from disk or fetched from the network.
"""

from __future__ import annotations


def a128729_terms() -> list[int]:
    """First 20 terms of the half-length avoidance sequence."""
    # OEIS A128729: skew Dyck paths of semilength n with no up-down-left
    # factor (left steps encoded as red down-steps, so the factor is up,
    # down, red-down).  Terms 0..8 are the published series display; the
    # tail is generated by the 4th-order recurrence and cross-checked
    # in-repo against the algebraic equation and the layered automaton.
    return [
        1, 1, 2, 6, 20, 71, 262, 994, 3852, 15183,
        60686, 245412, 1002344, 4129012, 17135432, 71575350,
        300690836, 1269662127, 5385593406, 22938095326,
    ]


def a128728_rows() -> list[list[int]]:
    """Marker triangle rows 0..7 (20 terms read by rows)."""
    # OEIS A128728: triangle read by rows; row n, column j = skew Dyck
    # paths of semilength n with exactly j up-down-left factors.  Rows
    # 0..6 are the published series display; row 7 is generated by the
    # layered automaton and cross-checked in-repo against the algebraic
    # equation.
    return [
        [1],
        [1],
        [2, 1],
        [6, 4],
        [20, 16],
        [71, 64, 2],
        [262, 261, 20],
        [994, 1084, 141],
    ]


def utilde_display() -> list[int]:
    """Published kernel-root display as utilde coefficients, z^0..z^14."""
    # The kernel root u1 normalised as utilde = z * u1; u1 itself is
    # 1/z - z - z^3 - 2 z^5 - 6 z^7 - 20 z^9 - 71 z^11 - 262 z^13 - ...
    return [1, 0, -1, 0, -1, 0, -2, 0, -6, 0, -20, 0, -71, 0, -262]
