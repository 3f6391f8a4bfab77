#!/usr/bin/env python3
"""Collect and compare benchmark result sets.

    python3 perfbench/compare.py collect DIR [--workloads W ...] [--seeds 1-10]
                                             [--trace 0|1]
        run perfbench/run.py once per (workload, seed) from the current
        directory, for BENCHMARK.json's run_seconds, and keep each run's
        stdout as DIR/<workload>-<seed>-t<trace>.out

    python3 perfbench/compare.py compare OLD NEW
        per (workload, end-to-end metric): both medians, quartiles and
        spreads (Q3 - Q1) / median, and the delta against the metric's
        bound; flags REGRESSION when NEW is worse than OLD by more than
        the bound, "unresolved" when either side spreads wider than the
        bound (unless every NEW run beats every OLD run), "ok" otherwise.
        `compare DIR DIR` shows one set's steadiness.

Quartiles are statistics.quantiles(values, n=4); bounds, units and
directions come from BENCHMARK.json.  Runs that failed their gates are
left out of the medians and counted on a FAILED line; sets measured for
different run lengths are refused.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bench_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(a):
    bench = bench_spec()
    os.makedirs(a.dir, exist_ok=True)
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    for w in workloads:
        for s in seeds(a.seeds):
            argv = [*bench["command"], "--workload", w, "--seed", str(s),
                    "--seconds", str(seconds), "--trace", str(a.trace)]
            r = subprocess.run(argv, capture_output=True, text=True)
            path = os.path.join(a.dir, "%s-%d-t%d.out" % (w, s, a.trace))
            with open(path, "w") as f:
                f.write(r.stdout)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else ""
            print("%s seed %d: exit %d %s" % (w, s, r.returncode, last[:160]))
            if r.returncode != 0:
                sys.stderr.write(r.stderr[-2000:])


def load(dirname):
    """({workload: {metric: [values]}}, {workload: failed runs}, run lengths)
    from the untraced runs in dirname."""
    out, failed, lengths = {}, {}, set()
    for path in sorted(glob.glob(os.path.join(dirname, "*-t0.out"))):
        lines = open(path).read().strip().splitlines()
        if len(lines) < 2:
            continue
        record = json.loads(lines[-2])["perfbench"]
        result = json.loads(lines[-1])
        lengths.add(record["seconds"])
        if not result["correct"]:
            failed[record["workload"]] = failed.get(record["workload"], 0) + 1
            continue
        per = out.setdefault(record["workload"], {})
        for name, m in result["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out, failed, lengths


def stats(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def compare(a):
    bench = bench_spec()
    (old, old_failed, old_len), (new, new_failed, new_len) = load(a.old), load(a.new)
    if len(old_len | new_len) > 1:
        sys.exit("refused: the sets were measured for different run lengths %s"
                 % sorted(old_len | new_len))
    print("%-12s %-16s %12s %12s %9s %7s %s" % (
        "workload", "metric", "old median", "new median", "worse by", "bound", "verdict"))
    flagged = 0
    for w in sorted(set(old) | set(new) | set(old_failed) | set(new_failed)):
        if old_failed.get(w) or new_failed.get(w):
            flagged += 1
            print("%-12s FAILED runs left out: %d old, %d new" % (
                w, old_failed.get(w, 0), new_failed.get(w, 0)))
        for m in bench["end_to_end"]:
            ov, nv = old.get(w, {}).get(m["name"]), new.get(w, {}).get(m["name"])
            if not ov or not nv:
                print("%-12s %-16s missing on one side" % (w, m["name"]))
                continue
            om, oq1, oq3, osp = stats(ov)
            nm, nq1, nq3, nsp = stats(nv)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (nm - om) / om
            all_better = (max(nv) < min(ov)) if sign > 0 else (min(nv) > max(ov))
            if worse > m["bound"]:
                verdict = "REGRESSION"
                flagged += 1
            elif max(osp, nsp) > m["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("%-12s %-16s %12.5g %12.5g %+8.1f%% %6.0f%% %-10s "
                  "old q1..q3 %.5g..%.5g (spread %.1f%%)  "
                  "new q1..q3 %.5g..%.5g (spread %.1f%%)" % (
                      w, m["name"], om, nm, 100 * worse, 100 * m["bound"], verdict,
                      oq1, oq3, 100 * osp, nq1, nq3, 100 * nsp))
    return 1 if flagged else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    a = ap.parse_args()
    sys.exit({"collect": collect, "compare": compare}[a.cmd](a) or 0)


if __name__ == "__main__":
    main()
