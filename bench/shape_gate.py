#!/usr/bin/env python3
"""Figure shape gates: each tagged series at or above its baseline.

Usage: python3 bench/shape_gate.py BENCH.json

Reads `figures` of a `bench/main.exe ... fig6 fig7 fig8 --json` sweep
and checks, per row of GATES, the shape recorded under the row's
EXPERIMENTS.md heading: at every thread count of the figure, the tagged
series' throughput is at least the baseline series' (ratio >= 1). It
checks shape, not the paper's magnitude. Exits 1 if a ratio is below
the bound, or if a figure, a series or a thread-count point of either
series is missing.
"""

import json
import sys

BOUND = 1.0
ABTREES = ("Figures 6 & 7 — (a,b)-trees: LLX/SCX vs HoH tagging",
           "hoh-abtree(4,8)", "llx-abtree(4,8)")
NOREC = ("Figure 8 — NOrec vs tagged NOrec on STAMP vacation",
         "norec-tagged", "norec")
# figure -> (EXPERIMENTS.md heading, tagged series, baseline series)
GATES = {"fig6": ABTREES, "fig7": ABTREES, "fig8": NOREC}


def points(series, impl):
    """Thread count -> throughput of one impl's series, or None."""
    s = next((s for s in series if s["impl"] == impl), None)
    if s is None:
        return None
    return {p["threads"]: p["result"]["throughput_per_kcycle"]
            for p in s["points"]}


def gate(fig, series, tagged_impl, base_impl):
    """Prints one line per thread count; True if every point passes."""
    tagged = points(series or [], tagged_impl)
    base = points(series or [], base_impl)
    missing = [impl for impl, pts in ((tagged_impl, tagged), (base_impl, base))
               if not pts]
    if missing:
        print(f"  {fig}: no {' or '.join(missing)} series: FAIL")
        return False
    ok = True
    for threads in sorted(set(tagged) | set(base)):
        if threads not in tagged or threads not in base:
            print(f"  {fig} t{threads}: point missing from one series: FAIL")
            ok = False
            continue
        ratio = tagged[threads] / base[threads] if base[threads] else float("nan")
        passed = ratio >= BOUND
        ok = ok and passed
        print(f"  {fig} t{threads:<3} {tagged_impl} / {base_impl} = {ratio:.3f}x "
              f"(bound >= {BOUND:.2f}x): {'ok' if passed else 'FAIL'}")
    return ok


def main(path):
    figures = json.load(open(path)).get("figures", {})
    ok = True
    heading = None
    for fig, (title, tagged_impl, base_impl) in GATES.items():
        if title != heading:
            heading = title
            print(f"Shape gate (EXPERIMENTS.md: {title})")
        ok = gate(fig, figures.get(fig), tagged_impl, base_impl) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
