#!/usr/bin/env python3
"""Paper-claim gates: one row per claim, each with a canary that must break it.

Usage: python3 bench/shape_gate.py BENCH.json [EXPERIMENTS.md]

Reads a `bench/main.exe ... fig2 fig6 fig7 fig8 spurious --json` sweep.
Each row of ROWS names the EXPERIMENTS.md heading that records its claim,
a check and a canary. A check returns one verdict per point and passes
when every gated point does; the checks test shape, not the paper's
magnitude. A canary is a perturbation of a copy of the document that
its row must reject: after the checks, each passing row is rerun on its
canary copy, so every run shows that each gate can still fail. Exits 1
if a row fails, or if a canary passes its row or cannot be applied.

Given EXPERIMENTS.md, it also checks that every backticked JSON path the
document cites resolves in BENCH.json. A path starts with a top-level
panel key (`figures`, `spurious`, ...); each further step is `.field`,
`[i]` (the i-th element of a list), or `[field=value]` (the one element
whose field equals value; `[f=v,g=w]` requires both). Its canary is the
document with the first path's last field renamed, which must fail.
"""

import json
import math
import re
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

PANELS = ("figures", "spurious", "headline", "latency", "store", "contention",
          "timeseries")
PATH = re.compile(r"`((?:%s)(?:\.\w+|\[[^\]`]+\])+)`" % "|".join(PANELS))
STEP = re.compile(r"\.(\w+)|\[([^\]]+)\]")
CONDITION = re.compile(r",(?=\w+=)")


def matches(value, text):
    """A JSON value equals the text of a `[field=value]` step: strings
    compare as written, numbers and booleans as parsed JSON."""
    if isinstance(value, str):
        return value == text
    try:
        return json.loads(text) == value
    except ValueError:
        return False


def resolve(doc, path):
    """None if path resolves in doc, else why not."""
    panel = next(p for p in PANELS if path.startswith(p))
    if panel not in doc:
        return f"no panel {panel}"
    node = doc[panel]
    for step in STEP.finditer(path, len(panel)):
        field, select = step.groups()
        if field is not None:
            if not isinstance(node, dict) or field not in node:
                return f"no field {field}"
            node = node[field]
        elif not isinstance(node, list):
            return f"[{select}] on a non-list"
        elif select.isdigit():
            if int(select) >= len(node):
                return f"[{select}] past a list of {len(node)}"
            node = node[int(select)]
        else:
            conds = [c.split("=", 1) for c in CONDITION.split(select)]
            if any(len(c) != 2 for c in conds):
                return f"[{select}] is neither an index nor field=value"
            hits = [e for e in node if isinstance(e, dict) and all(
                f in e and matches(e[f], v) for f, v in conds)]
            if len(hits) != 1:
                return f"[{select}] selects {len(hits)} elements"
            node = hits[0]
    return None


def unresolved(doc, text):
    """(line number, path, reason) for each cited path that does not
    resolve, and the number of paths cited. A path wrapped across lines
    keeps its line break, so it resolves only when written on one line."""
    bad = []
    cited = list(PATH.finditer(text))
    for m in cited:
        why = resolve(doc, m.group(1))
        if why:
            bad.append((text.count("\n", 0, m.start()) + 1, m.group(1), why))
    return bad, len(cited)


def check_paths(doc, md_path):
    """The doc-path check and its canary; True when both behave."""
    text = open(md_path).read()
    print(f"Doc paths ({md_path}: every cited JSON path resolves)")
    bad, cited = unresolved(doc, text)
    for n, path, why in bad:
        print(f"  line {n}: {path}: {why}: FAIL")
    print(f"  {cited} paths cited, {cited - len(bad)} resolve: "
          f"{'ok' if cited and not bad else 'FAIL'}")
    if bad or not cited:
        return False
    path = next((m.group(1) for m in PATH.finditer(text)
                 if "." in m.group(1)), None)
    if path is None:
        print("  canary (a path renamed): no path with a field: FAIL")
        return False
    renamed = re.sub(r"\.(\w+)((?:\[[^\]]+\])*)$", r".\1_renamed\2", path)
    caught = bool(unresolved(doc, text.replace(f"`{path}`",
                                               f"`{renamed}`", 1))[0])
    print(f"  canary ({renamed}): {'caught' if caught else 'NOT caught: FAIL'}")
    return caught


def passes(verdicts):
    return all(v is not False for _, v in verdicts)


def main(path, md_path=None):
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
    if md_path is not None:
        ok = check_paths(doc, md_path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
