#!/usr/bin/env python3
"""Prints per-metric deltas between two benchmark outputs.

    python3 perfbench/compare.py BEFORE AFTER

Each argument is a file holding the output of one benchmark run (the
result JSON is its last non-empty line), e.g. two traced runs of the same
workload and seed on the parent commit and on a change:

    codec.peel_ns_per_symbol: 334.3 -> 301.2 ns (-9.9%)

Metrics present on one side only are listed as such.
"""

import json
import sys


def load(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise SystemExit("%s: empty" % path)
    return json.loads(lines[-1])["metrics"]


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py BEFORE AFTER\n")
        return 2
    before, after = load(argv[0]), load(argv[1])
    for name in list(before) + [n for n in after if n not in before]:
        if name not in after or name not in before:
            side = "before" if name in before else "after"
            print("%s: only in %s" % (name, side))
            continue
        a, b = before[name]["value"], after[name]["value"]
        change = "" if a == 0 else " (%+.1f%%)" % (100.0 * (b - a) / abs(a))
        print("%s: %.6g -> %.6g %s%s" % (name, a, b, after[name]["unit"],
                                         change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
