#!/usr/bin/env python3
"""Reads benchmark result sets and judges them against BENCHMARK.json.

    python3 perfbench/compare.py DIR                 # steadiness of one set
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is the directory a series of runs wrote with --out DIR
(perfbench/series.sh does this); its untraced run records are read from
DIR/runs/*.json.

With one set, each workload x end-to-end metric prints its median,
quartiles and spread (interquartile range over median, from
statistics.quantiles(values, n=4)) against the metric's bound; a spread
above a third of the bound is flagged.

With two sets, runs pair up by workload and seed, and each workload x
metric prints both sides' median [q1, q3], the pairs the change won (ties
count for neither side) and one verdict:

  improved      the change won at least 9/10 of the pairs and the medians
                differ, in the better direction, by more than the parent's
                interquartile range;
  unresolved    otherwise, when either side's spread exceeds the bound and
                not every change run beats every parent run;
  worse         the change's median is worse than the parent's by more than
                the bound (a share of the parent's median);
  within bound  everything else.

Exit status: 1 if any verdict is "worse" (two sets) or any spread exceeds
its bound (one set), else 0.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory):
    """{(workload, seed): {metric: value}} for the untraced runs in a set."""
    runs = {}
    for path in sorted(Path(directory, "runs").glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        seed = record["provenance"]["seed"]
        metrics = record["result"]["metrics"]
        runs[(record["workload"], seed)] = {k: v["value"] for k, v in metrics.items()}
    if not runs:
        sys.exit(f"compare: no untraced run records under {directory}/runs")
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def better(metric, a, b):
    """True if value a is better than value b."""
    return a < b if metric["better"] == "lower" else a > b


def column(runs, workload, name):
    return [m[name] for (w, _), m in sorted(runs.items()) if w == workload and name in m]


def steadiness(runs, spec):
    bad = False
    print(f"{'workload':<16} {'metric':<22} {'n':>3} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'spread':>7} {'bound':>6}")
    for workload in sorted({w for w, _ in runs}):
        for metric in spec["end_to_end"]:
            values = column(runs, workload, metric["name"])
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if metric["name"] != "setup_s" and s > metric["bound"]:
                flag, bad = "  OVER BOUND", True
            elif s > metric["bound"] / 3:
                flag = "  over a third of the bound"
            print(f"{workload:<16} {metric['name']:<22} {len(values):>3} {q2:>13.4f} "
                  f"{q1:>13.4f} {q3:>13.4f} {s:>7.4f} {metric['bound']:>6}{flag}")
    return 1 if bad else 0


def compare(parent, change, spec):
    worse_any = False
    print(f"{'workload':<16} {'metric':<22} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>7}  verdict")
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = column(parent, workload, name)
            c = column(change, workload, name)
            if not p or not c:
                continue
            pq1, pm, pq3 = quartiles(p)
            cq1, cm, cq3 = quartiles(c)
            pairs = [(parent[(workload, s)][name], change[(workload, s)][name]) for s in seeds]
            won = sum(1 for pv, cv in pairs if better(metric, cv, pv))
            apart = abs(cm - pm) > (pq3 - pq1)
            if pairs and won >= 0.9 * len(pairs) and apart and better(metric, cm, pm):
                verdict = "improved"
            elif max(spread(p), spread(c)) > metric["bound"] and not all(
                better(metric, cv, pv) for cv in c for pv in p
            ):
                verdict = "unresolved"
            elif better(metric, pm, cm) and abs(cm - pm) > metric["bound"] * abs(pm):
                verdict, worse_any = "worse", True
            else:
                verdict = "within bound"
            print(f"{workload:<16} {name:<22} "
                  f"{f'{pm:.4f} [{pq1:.4f}, {pq3:.4f}]':>36} "
                  f"{f'{cm:.4f} [{cq1:.4f}, {cq3:.4f}]':>36} "
                  f"{f'{won}/{len(pairs)}':>7}  {verdict}")
    return 1 if worse_any else 0


def main(argv):
    if len(argv) not in (2, 3) or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if len(argv) == 2 else 2
    spec = json.loads(BENCHMARK.read_text())
    if len(argv) == 2:
        return steadiness(load_set(argv[1]), spec)
    return compare(load_set(argv[1]), load_set(argv[2]), spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
