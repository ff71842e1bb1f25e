#!/usr/bin/env python3
"""Which rows moved between two `bench/main.exe --json` documents.

Usage: python3 bench/baseline_moves.py OLD.json NEW.json [--expect PANEL[:FIELD=VALUE]]...

Lists, per top-level panel, the rows added, removed or changed: objects in
a list (`store[3]`, `figures.fig6[0]`) keyed by their identity fields
(bench_compare.ml's `identity_keys`) and rank among equals, and top-level
scalars. Exits 1 if a row moved that no `--expect` names.
"""

import argparse
import json

IDENTITY = ("impl", "backend", "comparison", "workload", "scenario", "mode",
            "arrival", "paper_claim", "fault_spec", "generator", "quick",
            "skipped", "calibration", "policy", "theta")


def rows(doc):
    """(panel, path, identity, rank) -> (index, label, row)."""
    out = {}
    def walk(panel, path, v):
        if isinstance(v, dict):
            for k, sub in v.items():
                walk(panel, f"{path}.{k}", sub)
        elif isinstance(v, list) and all(isinstance(r, dict) for r in v):
            rank = {}
            for i, r in enumerate(v):
                ident = " ".join(f"{k}={json.dumps(r[k])}" for k in IDENTITY if k in r)
                rank[ident] = rank.get(ident, -1) + 1
                out[(panel, path, ident, rank[ident])] = (i, f"{path}[{i}]", r)
        else:
            out[(panel, path, "", 0)] = (0, path, v)
    for k, v in doc.items():
        walk(k, k, v)
    return out


ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("old")
ap.add_argument("new")
ap.add_argument("--expect", action="append", default=[],
                metavar="PANEL[:FIELD=VALUE]")
args = ap.parse_args()
expects = [(p, *(c.partition("=")[::2])) for p, _, c in
           (e.partition(":") for e in args.expect)]
old, new = (rows(json.load(open(f))) for f in (args.old, args.new))
moves = []
for key in old.keys() | new.keys():
    o, n = old.get(key), new.get(key)
    kind = "added" if o is None else "removed" if n is None else \
        "changed" if o[2] != n[2] else None
    if kind:
        i, label, row = n or o
        row = row if isinstance(row, dict) else {}
        ok = any(p == key[0] and (not f or str(row.get(f)) == v) for p, f, v in expects)
        moves.append(((key[0], key[1], i), f"{key[0]}: {kind} {label} {key[2]}"
                      + ("" if ok else "  (unexpected)"), ok))
for _, line, _ in sorted(moves):
    print(line)
unexpected = sum(not ok for _, _, ok in moves)
print(f"{len(moves)} row(s) moved, {unexpected} unexpected")
raise SystemExit(1 if unexpected else 0)
