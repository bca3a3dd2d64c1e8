"""Isolated layer tier: one public operation per layer at a fixed size, timed
in-process after a warm-up.

Inputs are the values the program itself computes: the half-length
sequence (Q), the marker series (Q[t]) and the automaton's weights at
length 200.  Each value is the median of REPS batches, a batch being enough
calls to last BATCH_S.  The recurrence step is the exception: the public
``holonomic.extend`` always starts at n = 0, so its cost per step near
n = 20000 is the difference of two runs over the steps between them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REPS = 3
BATCH_S = 0.05
STEP_SPAN = (17500, 22500)  # recurrence steps timed by difference, centred on n = 20000


def _time_per_call(fn) -> float:
    t0 = time.perf_counter()
    fn()  # warm-up, also sizes the batch
    once = time.perf_counter() - t0
    per_batch = max(1, int(BATCH_S / once) if once > 0 else 1)
    samples = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        samples.append((time.perf_counter() - t0) / per_batch)
    return statistics.median(samples)


def measure() -> dict[str, float]:
    """Seconds per call, keyed by metric name."""
    from skewdyck import automaton, cubics, holonomic, kernel, paths
    from skewdyck.rings import QQ, TPoly
    from skewdyck.series import ZSeries, solve_algebraic

    s = holonomic.extend([1, 1, 2, 6], 399)
    s_q = ZSeries([Fraction(c) for c in s], 400, QQ)
    s_t = cubics.marker_series(50)
    state = automaton.run(200)
    p_a, p_b = (sum((w for (_, level), w in state.items() if level == k), TPoly()) for k in (0, 2))

    cases = {
        "rings.tpoly_mul.l200_s": lambda: p_a * p_b,
        "rings.tpoly_add.l200_s": lambda: p_a + p_b,
        "series.mul_q.n400_s": lambda: s_q * s_q,
        "series.inverse_q.n400_s": s_q.inverse,
        "series.mul_t.n50_s": lambda: s_t * s_t,
        "series.inverse_t.n50_s": s_t.inverse,
        "series.newton_avoidance.n100_s": lambda: solve_algebraic(cubics.avoidance_cubic(), 1, 100),
        "series.newton_marker.n20_s": lambda: solve_algebraic(cubics.marker_cubic(), 1, 20),
        "series.newton_kernel.n100_s": lambda: solve_algebraic(
            kernel.kernel_equation(kernel.GFMode.UNIVARIATE), 1, 100
        ),
        "automaton.step.l200_s": lambda: automaton.step(state),
        "paths.udr_profile.d20_s": lambda: paths.udr_profile(20),
    }
    out = {name: _time_per_call(fn) for name, fn in cases.items()}
    out["holonomic.step.n20000_s"] = _time_per_step(holonomic.extend)
    return out


def _time_per_step(extend) -> float:
    lo, hi = STEP_SPAN
    extend([1, 1, 2, 6], lo)  # warm-up
    diffs = []
    for _ in range(REPS):
        runs = []
        for n_max in (lo, hi):
            t0 = time.perf_counter()
            extend([1, 1, 2, 6], n_max)
            runs.append(time.perf_counter() - t0)
        diffs.append((runs[1] - runs[0]) / (hi - lo))
    return statistics.median(diffs)
