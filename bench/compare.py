"""Report-only comparison of two sets of benchmark results.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as bench/run.py
writes to .bench_out/results/.  For every (workload, trace) and metric found
on both sides it prints the median and quartiles of each side and a verdict,
using the bounds and directions in BENCHMARK.json:

  better      NEW wins at least 9 in 10 runs paired with BASE (by seed where
              both sides ran the same seeds, else in order), and the medians
              differ by more than BASE's interquartile range
  worse       NEW's median is worse than BASE's by more than the bound (for a
              metric without a bound: BASE wins 9 in 10 pairs and the medians
              differ by more than BASE's interquartile range)
  unresolved  neither, and a side's spread (IQR over median) is wider than
              the bound, or the metric has no bound and the medians differ
  same        neither, and both spreads are within the bound (for a metric
              without a bound: equal medians, as exact counts give)

It gates nothing: the exit code is 0 whatever the verdicts.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg: str) -> dict:
    """{(workload, trace): {seed: metrics}} from a file or a directory."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        r = json.loads(f.read_text(encoding="utf-8"))
        values = {k: v["value"] for k, v in r["metrics"].items()}
        out.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = values
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: dict, new: dict, better: str, bound: float | None) -> tuple[str, list, list]:
    seeds = sorted(set(base) & set(new))
    if len(seeds) == len(base) == len(new):
        pairs = [(base[s], new[s]) for s in seeds]
    else:
        pairs = list(zip(base.values(), new.values()))
    b, n = list(base.values()), list(new.values())
    bq, nq = quartiles(b), quartiles(n)
    sign = 1.0 if better == "lower" else -1.0
    gains = sum(1 for x, y in pairs if sign * (y - x) < 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    apart = abs(nq[1] - bq[1]) > bq[2] - bq[0]
    if pairs and gains >= 0.9 * len(pairs) and apart:
        return "better", bq, nq
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and apart:
            return "worse", bq, nq
        return ("same" if nq[1] == bq[1] else "unresolved"), bq, nq
    if bq[1] and sign * (nq[1] - bq[1]) / abs(bq[1]) > bound:
        return "worse", bq, nq
    spreads = [(q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (bq, nq)]
    return ("unresolved" if max(spreads) > bound else "same"), bq, nq


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(argv[0]), load(argv[1])
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} trace={trace}: {len(base[key])} base runs, {len(new[key])} new runs")
        print(f"{'metric':34} {'unit':6} {'base q1/median/q3':>32} {'new q1/median/q3':>32}  verdict")
        names = [n for n in info if any(n in m for m in base[key].values())]
        for name in names:
            b = {s: m[name] for s, m in base[key].items() if name in m}
            n = {s: m[name] for s, m in new[key].items() if name in m}
            if not b or not n:
                continue
            m = info[name]
            v, bq, nq = verdict(b, n, m["better"], m.get("bound"))
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{name:34} {m['unit']:6} {fmt.format(*bq):>32} {fmt.format(*nq):>32}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
