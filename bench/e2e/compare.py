#!/usr/bin/env python3
"""Compares two bench/e2e reports metric by metric.

    python3 bench/e2e/compare.py A.json B.json

A is the parent, B the change; both are reports written by run.py. For
every metric on every workload it prints both medians with their
quartiles, the change (B - A) / A, and a verdict:

  better      B's median is better by more than A's own spread
              (or every B sample beats every A sample)
  worse       B's median is worse than A's by more than the bound
  unresolved  a spread (quartile distance over median) exceeds the bound,
              or a side has a single sample
  same        none of the above
  -           no bound: change shown for reference

Bounds come from BENCHMARK.json. attack_hit_frac and failed_frac are
deterministic for a seed and run length, so between such reports any
worsening of them is worse (bound 0); they cannot sit in BENCHMARK.json,
whose metrics every workload reports with spreads over ten seeds within
their bounds. Exits 1 when any bounded metric is worse or a check failed
in B.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the BENCHMARK.json loader)

EXACT = {"attack_hit_frac": "higher", "failed_frac": "lower"}


def spread(m):
    return (m["q3"] - m["q1"]) / m["value"] if "q1" in m and m["value"] else 0.0


def verdict(a, b, bound, better):
    """(B - A) / A, and the verdict for a metric where `better` is lower
    or higher."""
    if a["value"] == 0:
        change = 0.0 if b["value"] == 0 else float("inf")
    else:
        change = (b["value"] - a["value"]) / a["value"]
    if bound is None:
        return change, "-"
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * change
    if min(a.get("n", 2), b.get("n", 2)) < 2:
        return change, "unresolved"  # one sample shows no spread
    if max(spread(a), spread(b)) > bound:
        # Rank rule: only sample medians, not percentiles, have one
        # sample per repetition.
        if a.get("stat") == "median" and b.get("stat") == "median":
            worst_b = max(b["samples"]) if sign > 0 else min(b["samples"])
            best_a = min(a["samples"]) if sign > 0 else max(a["samples"])
            if sign * (worst_b - best_a) < 0:
                return change, "better"
        return change, "unresolved"
    if worsening > bound:
        return change, "worse"
    if -worsening > spread(a):
        return change, "better"
    return change, "same"


def describe(m):
    if "q1" in m:
        return "%.6g [%.6g, %.6g] n=%d" % (m["value"], m["q1"], m["q3"], m["n"])
    return "%.6g" % m["value"]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = run.load_spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    if (a["seed"], a["seconds"]) == (b["seed"], b["seconds"]):
        bounds.update({name: (0.0, better) for name, better in EXACT.items()})
    else:
        print("note: the reports differ in seed or run length, so the planted "
              "attacks differ and attack_hit_frac is not comparable")
    layers = {m["name"]: m["better"] for m in spec["per_layer"]}
    worse = 0
    print("%-9s %-34s %-40s %-40s %9s  %s" % ("workload", "metric", "A", "B",
                                             "change", "verdict"))
    for workload, entry_b in b["workloads"].items():
        entry_a = a["workloads"].get(workload)
        if entry_a is None:
            print("%-9s missing from A" % workload)
            continue
        for section in ("end_to_end", "extra", "per_layer"):
            for name, mb in entry_b.get(section, {}).items():
                ma = entry_a.get(section, {}).get(name)
                if ma is None:
                    continue
                bound, better = bounds.get(name, (None, layers.get(name, "lower")))
                change, result = verdict(ma, mb, bound, better)
                worse += result == "worse"
                print("%-9s %-34s %-40s %-40s %+8.1f%%  %s" % (
                    workload, name, describe(ma), describe(mb),
                    100 * change, result))
        for name, ok in entry_b.get("checks", {}).items():
            if not ok:
                print("%-9s check %s FAILED in B" % (workload, name))
                worse += 1
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
