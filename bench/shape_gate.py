#!/usr/bin/env python3
"""Paper-claim gates: one row per claim, each with a canary that must break it.

Usage: python3 bench/shape_gate.py BENCH.json

Reads a `bench/main.exe ... fig2 fig6 fig7 fig8 spurious --json` sweep.
Each row of ROWS names the EXPERIMENTS.md heading that records its claim,
a check and a canary. A check returns one verdict per point and passes
when every gated point does; the checks test shape, not the paper's
magnitude. A canary is a perturbation of a copy of the document that
its row must reject: after the checks, each passing row is rerun on its
canary copy, so every run shows that each gate can still fail. Exits 1
if a row fails, or if a canary passes its row or cannot be applied.
"""

import json
import math
import sys

RATIO_BOUND = 1.0
SHARE_BOUND = 0.01
SHARE_RANGES = (256, 8192)


def series(doc, fig):
    """Impl -> {thread count -> result} for one figure of the document."""
    return {s["impl"]: {p["threads"]: p["result"] for p in s["points"]}
            for s in doc.get("figures", {}).get(fig) or []}


def ratio(fig, tagged, base, min_threads):
    """Tagged throughput / baseline throughput >= RATIO_BOUND at every
    thread count >= min_threads of the figure; the points below it are
    reported only."""
    def check(doc):
        figure = series(doc, fig)
        missing = [impl for impl in (tagged, base) if not figure.get(impl)]
        if missing:
            return [(f"{fig}: no {' or '.join(missing)} series", False)]
        t, b = figure[tagged], figure[base]
        verdicts = []
        for threads in sorted(set(t) | set(b)):
            gated = threads >= min_threads
            if threads not in t or threads not in b:
                verdicts.append((f"{fig} t{threads}: point missing from "
                                 "one series", False if gated else None))
                continue
            tb = b[threads]["throughput_per_kcycle"]
            r = t[threads]["throughput_per_kcycle"] / tb if tb else math.nan
            verdicts.append((f"{fig} t{threads:<3} {tagged} / {base} = "
                             f"{r:.3f}x (bound >= {RATIO_BOUND:.2f}x)",
                             r >= RATIO_BOUND if gated else None))
        return verdicts
    return check


def lowest(fig, impl, field, min_threads):
    """The impl's field is below every other series' at every thread
    count >= min_threads of the figure."""
    def check(doc):
        figure = series(doc, fig)
        if not figure.get(impl) or len(figure) < 2:
            return [(f"{fig}: no {impl} series or no rival", False)]
        verdicts = []
        for threads in sorted({n for pts in figure.values() for n in pts}):
            if threads < min_threads:
                continue
            if any(threads not in pts for pts in figure.values()):
                verdicts.append((f"{fig} t{threads}: point missing from "
                                 "a series", False))
                continue
            rival = min((i for i in figure if i != impl),
                        key=lambda i: figure[i][threads][field])
            v = figure[impl][threads][field]
            w = figure[rival][threads][field]
            verdicts.append((f"{fig} t{threads:<3} {impl} {field} {v:.1f} "
                             f"vs lowest other {rival} {w:.1f}", v < w))
        return verdicts
    return check


def spurious_share(doc):
    """validate_failures_spurious / validates < SHARE_BOUND on the
    `spurious` rows at SHARE_RANGES; other rows are reported only."""
    verdicts = []
    seen = set()
    for r in doc.get("spurious", []):
        key_range = r["result"]["key_range"]
        validates = r["validates"]
        spurious = r["validate_failures_spurious"]
        share = spurious / validates if validates else math.nan
        gated = key_range in SHARE_RANGES
        seen.add(key_range)
        verdicts.append((f"{r['workload']:<20} spurious {spurious}/{validates}"
                         f" = {100 * share:.3f}% (bound < "
                         f"{100 * SHARE_BOUND:.0f}%)",
                         share < SHARE_BOUND if gated else None))
    verdicts += [(f"no spurious row at key range {key_range}", False)
                 for key_range in SHARE_RANGES if key_range not in seen]
    return verdicts


def point_at(fig, impl, threads, field, factor, rivals):
    """Canary: impl's point set to factor x the lowest rival's."""
    def perturb(doc):
        figure = series(doc, fig)
        figure[impl][threads][field] = factor * min(
            figure[r][threads][field] for r in rivals)
    rival = rivals[0] if len(rivals) == 1 else f"min({', '.join(rivals)})"
    return f"{fig} t{threads} {impl} {field} at {factor}x {rival}", perturb


def spurious_at(key_range, percent):
    """Canary: the row at key_range at ceil(percent%) of its validates."""
    def perturb(doc):
        r = next(r for r in doc["spurious"]
                 if r["result"]["key_range"] == key_range)
        r["validate_failures_spurious"] = -(-percent * r["validates"] // 100)
    return f"r{key_range} spurious at {percent}% of validates", perturb


ABTREES = "Figures 6 & 7 — (a,b)-trees: LLX/SCX vs HoH tagging"
# (EXPERIMENTS.md heading, check, canary)
ROWS = [
    # The 1-thread point is not gated: there HoH pays the tag-targeted
    # IAS's directory probe with no one to synchronize against (DESIGN.md
    # section 7.3).
    ("Figure 2 — list throughput vs threads (35% ins / 35% del / 30% search)",
     ratio("fig2", "hoh-list", "harris-list", 4),
     point_at("fig2", "hoh-list", 64, "throughput_per_kcycle", 0.99,
              ("harris-list",))),
    ("Figure 4 — lists: throughput / L1 miss rate / energy (35/35/30)",
     lowest("fig2", "hoh-list", "energy_per_op", 2),
     point_at("fig2", "hoh-list", 4, "energy_per_op", 1.01,
              ("harris-list", "vas-list"))),
    (ABTREES,
     ratio("fig6", "hoh-abtree(4,8)", "llx-abtree(4,8)", 1),
     point_at("fig6", "hoh-abtree(4,8)", 64, "throughput_per_kcycle", 0.9,
              ("llx-abtree(4,8)",))),
    (ABTREES,
     ratio("fig7", "hoh-abtree(4,8)", "llx-abtree(4,8)", 1),
     point_at("fig7", "hoh-abtree(4,8)", 64, "throughput_per_kcycle", 0.9,
              ("llx-abtree(4,8)",))),
    ("Figure 8 — NOrec vs tagged NOrec on STAMP vacation",
     ratio("fig8", "norec-tagged", "norec", 1),
     point_at("fig8", "norec-tagged", 16, "throughput_per_kcycle", 0.99,
              ("norec",))),
    ('Section 6 — "the overhead of spurious invalidations is negligible '
     '(<1%)"',
     spurious_share,
     spurious_at(256, 2)),
]


VERDICT = {True: "ok", False: "FAIL", None: "reported, not gated"}


def passes(verdicts):
    return all(v is not False for _, v in verdicts)


def main(path):
    text = open(path).read()
    doc = json.loads(text)
    ok = True
    heading = None
    for title, check, (canary, perturb) in ROWS:
        if title != heading:
            heading = title
            print(f"Gate (EXPERIMENTS.md: {title})")
        verdicts = check(doc)
        for line, v in verdicts:
            print(f"  {line}: {VERDICT[v]}")
        if not passes(verdicts):
            ok = False
            continue
        copy = json.loads(text)
        try:
            perturb(copy)
        except (KeyError, TypeError, StopIteration):
            print(f"  canary ({canary}): target missing: FAIL")
            ok = False
            continue
        caught = not passes(check(copy))
        ok = ok and caught
        print(f"  canary ({canary}): "
              f"{'caught' if caught else 'NOT caught: FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
