#!/usr/bin/env python3
"""Summarize a perfbench span trace: self time per layer and coverage.

    python3 perfbench/summarize.py TRACE.json

The trace is the Chrome trace-event JSON perfbench_e2e writes with
--trace 1 ("X" events whose args carry id, parent and unit). A layer's
self time is its spans' durations minus the part of each interval that
its child spans cover. Coverage is the share of each workload span
(one artifact build) covered by its direct children.
"""

import json
import sys
from collections import defaultdict


def covered(span, children):
    """Length of span's interval covered by the union of children."""
    begin, end = span["ts"], span["ts"] + span["dur"]
    parts = sorted((max(begin, c["ts"]), min(end, c["ts"] + c["dur"]))
                   for c in children)
    total, cursor = 0.0, begin
    for lo, hi in parts:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def summarize(path):
    """Return (report lines, coverage over all workload spans)."""
    with open(path) as f:
        spans = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    children = defaultdict(list)
    for s in spans:
        children[s["args"]["parent"]].append(s)

    count = defaultdict(int)
    total_us = defaultdict(float)
    self_us = defaultdict(float)
    units_us = units_covered_us = 0.0
    worst = 1.0
    for s in spans:
        kids = children.get(s["args"]["id"], [])
        inside = covered(s, kids)
        layer = s["cat"]
        count[layer] += 1
        total_us[layer] += s["dur"]
        self_us[layer] += s["dur"] - inside
        if layer == "workload" and s["dur"] > 0:
            units_us += s["dur"]
            units_covered_us += inside
            worst = min(worst, inside / s["dur"])

    coverage = units_covered_us / units_us if units_us else 0.0
    lines = [f"trace: {len(spans)} spans; child spans cover "
             f"{100 * coverage:.2f}% of traced workload wall "
             f"(worst unit {100 * worst:.2f}%)",
             f"{'layer':<10} {'spans':>7} {'total_s':>10} {'self_s':>10}"]
    for layer in sorted(total_us, key=lambda k: -self_us[k]):
        lines.append(f"{layer:<10} {count[layer]:>7} "
                     f"{total_us[layer] / 1e6:>10.4f} "
                     f"{self_us[layer] / 1e6:>10.4f}")
    return lines, coverage


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    report, _ = summarize(sys.argv[1])
    print("\n".join(report))
