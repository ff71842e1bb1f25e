#!/usr/bin/env python3
"""Section 6 gate: spurious validation failures stay below 1%.

Usage: python3 bench/section6_gate.py BENCH.json

Reads the `spurious` rows of a `bench/main.exe ... spurious --json` sweep
and checks the paper's Section 6 claim, recorded in EXPERIMENTS.md under
'Section 6 — "the overhead of spurious invalidations is negligible (<1%)"'.
Rows at the bench's own key ranges (`result.key_range` 256 for the list,
8192 for the tree) are gated: validate_failures_spurious / validates must
be below 1%. Any other row, such as the deliberately oversized r65536
tree, is printed but not gated. Exits 1 if a gated row fails, has no
validates, or is missing.
"""

import json
import sys

BOUND = 0.01
GATED_RANGES = (256, 8192)
HEADING = ('EXPERIMENTS.md: Section 6 — "the overhead of spurious '
           'invalidations is negligible (<1%)"')


def main(path):
    rows = json.load(open(path))["spurious"]
    print(f"Section 6 gate ({HEADING})")
    ok = True
    seen = set()
    for r in rows:
        key_range = r["result"]["key_range"]
        validates = r["validates"]
        spurious = r["validate_failures_spurious"]
        share = spurious / validates if validates else float("nan")
        gated = key_range in GATED_RANGES
        if gated:
            seen.add(key_range)
            passed = validates > 0 and share < BOUND
            ok = ok and passed
            verdict = "ok" if passed else "FAIL"
        else:
            verdict = "reported, not gated"
        print(f"  {r['workload']:<20} spurious {spurious}/{validates} = "
              f"{100 * share:.3f}% (bound < {100 * BOUND:.0f}%): {verdict}")
    for key_range in GATED_RANGES:
        if key_range not in seen:
            print(f"  no spurious row at key range {key_range}: FAIL")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
