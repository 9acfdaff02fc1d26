#!/usr/bin/env python3
"""Summarize and compare sets of benchmark runs.

    python3 perfbench/compare.py spread RUNS
    python3 perfbench/compare.py diff BASE NEW

RUNS, BASE and NEW are directories of run records written by
perfbench/run.py (`.bench_runs/` by default); only untraced records are
read. `spread` prints, per workload and end-to-end metric, the median,
quartiles and spread (inter-quartile distance over the median) against the
metric's bound in BENCHMARK.json. `diff` prints both sides' medians and
quartiles, the share of pairs the new side wins (pairs matched by seed where
both sides ran it, else by order; ties count for neither) and a verdict:

- improved: the new side wins at least 9 of 10 pairs and the medians differ
  by more than the base side's inter-quartile distance, or every new run
  beats every base run;
- unresolved: a side's spread exceeds the bound;
- worse: the new median is worse than the base median by more than the bound;
- unchanged: otherwise.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bounds():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load(directory):
    """{workload: {metric: [(seed, value), ...]}} from untraced records."""
    runs = {}
    files = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not files:
        sys.exit(f"compare: no run records in {directory}")
    for path in files:
        with open(path) as f:
            doc = json.load(f)
        if doc.get("trace"):
            continue
        per = runs.setdefault(doc["workload"], {})
        for name, m in doc["metrics"].items():
            per.setdefault(name, []).append((doc["seed"], m["value"]))
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / med if med else float("inf")


def pairs(base, new):
    b, n = dict(base), dict(new)
    common = sorted(set(b) & set(n))
    if common:
        return [(b[s], n[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in new]))


def cmd_spread(directory):
    spec = bounds()
    runs = load(directory)
    print(f"{'workload':14} {'metric':24} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    ok = True
    for w in sorted(runs):
        for name, m in spec.items():
            vals = [v for _, v in runs[w].get(name, [])]
            if not vals:
                continue
            q1, med, q3 = summary(vals)
            s = spread(vals)
            flag = "" if s <= m["bound"] else "  OVER"
            ok &= flag == ""
            print(f"{w:14} {name:24} {len(vals):3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.3f} {m['bound']:6.2f}{flag}")
    return 0 if ok else 1


def verdict(m, base, new):
    lower = m["better"] == "lower"
    b = [v for _, v in base]
    n = [v for _, v in new]
    _, mb, _ = summary(b)
    _, mn, _ = summary(n)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    ps = pairs(base, new)
    wins = sum(better(y, x) for x, y in ps)
    share = wins / len(ps) if ps else 0.0
    worse_by = ((mn - mb) if lower else (mb - mn)) / mb if mb else 0.0
    q1b, _, q3b = summary(b)
    if all(better(y, x) for x in b for y in n):
        v = "improved"
    elif max(spread(b), spread(n)) > m["bound"]:
        v = "unresolved"
    elif share >= 0.9 and abs(mn - mb) > (q3b - q1b) and better(mn, mb):
        v = "improved"
    elif worse_by > m["bound"]:
        v = "worse"
    else:
        v = "unchanged"
    return mb, mn, share, worse_by, v


def cmd_diff(base_dir, new_dir):
    spec = bounds()
    base, new = load(base_dir), load(new_dir)
    print(f"{'workload':14} {'metric':24} {'base median':>12} {'[q1, q3]':>25} "
          f"{'new median':>12} {'[q1, q3]':>25} {'wins':>5} {'worse':>7}  verdict")
    code = 0
    for w in sorted(set(base) & set(new)):
        for name, m in spec.items():
            if name not in base[w] or name not in new[w]:
                continue
            b, n = base[w][name], new[w][name]
            mb, mn, share, worse_by, v = verdict(m, b, n)
            qb = summary([x for _, x in b])
            qn = summary([x for _, x in n])
            print(f"{w:14} {name:24} {mb:12.6g} [{qb[0]:11.5g}, {qb[2]:11.5g}] "
                  f"{mn:12.6g} [{qn[0]:11.5g}, {qn[2]:11.5g}] {share:5.2f} {worse_by:+7.3f}  {v}")
            if v == "worse":
                code = 1
    return code


def main():
    args = sys.argv[1:]
    if len(args) == 2 and args[0] == "spread":
        sys.exit(cmd_spread(args[1]))
    if len(args) == 3 and args[0] == "diff":
        sys.exit(cmd_diff(args[1], args[2]))
    sys.exit(__doc__)


if __name__ == "__main__":
    main()
