#!/usr/bin/env python3
"""Figures 6 & 7 gate: the HoH-tagged (a,b)-tree is ahead of LLX/SCX.

Usage: python3 bench/fig67_gate.py BENCH.json

Reads `figures.fig6` and `figures.fig7` of a `bench/main.exe ... fig6 fig7
--json` sweep and checks the shape recorded in EXPERIMENTS.md under
'Figures 6 & 7 — (a,b)-trees: LLX/SCX vs HoH tagging': at every thread
count of both figures, hoh-abtree(4,8) throughput is at least
llx-abtree(4,8)'s (ratio >= 1). It checks shape, not the paper's
magnitude. Exits 1 if a ratio is below the bound, or if a figure, a
series or a thread-count point of either series is missing.
"""

import json
import sys

BOUND = 1.0
FIGURES = ("fig6", "fig7")
TAGGED, BASELINE = "hoh-abtree(4,8)", "llx-abtree(4,8)"
HEADING = ("EXPERIMENTS.md: Figures 6 & 7 — (a,b)-trees: "
           "LLX/SCX vs HoH tagging")


def points(series, impl):
    """Thread count -> throughput of one impl's series, or None."""
    s = next((s for s in series if s["impl"] == impl), None)
    if s is None:
        return None
    return {p["threads"]: p["result"]["throughput_per_kcycle"]
            for p in s["points"]}


def main(path):
    figures = json.load(open(path)).get("figures", {})
    print(f"Figures 6/7 gate ({HEADING})")
    ok = True
    for fig in FIGURES:
        series = figures.get(fig)
        tagged = points(series or [], TAGGED)
        base = points(series or [], BASELINE)
        missing = [impl for impl, pts in ((TAGGED, tagged), (BASELINE, base))
                   if not pts]
        if missing:
            print(f"  {fig}: no {' or '.join(missing)} series: FAIL")
            ok = False
            continue
        for threads in sorted(set(tagged) | set(base)):
            if threads not in tagged or threads not in base:
                print(f"  {fig} t{threads}: point missing from one series: FAIL")
                ok = False
                continue
            ratio = tagged[threads] / base[threads] if base[threads] else float("nan")
            passed = ratio >= BOUND
            ok = ok and passed
            print(f"  {fig} t{threads:<3} {TAGGED} / {BASELINE} = {ratio:.2f}x "
                  f"(bound >= {BOUND:.2f}x): {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
