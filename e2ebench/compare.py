#!/usr/bin/env python3
"""Sweeps, summarizes and compares end-to-end benchmark records.

Records are the JSON files run.py writes (.bench_out/results by default, or
$E2EBENCH_RECORD_DIR).

  compare.py sweep --workload W --seeds 1-10 --seconds S [--trace 0|1] --out DIR
      runs run.py once per seed, writing the records into DIR;
  compare.py summary DIR [--json]
      per workload and metric: median, quartiles and spread (IQR / median)
      against the metric's bound in BENCHMARK.json;
  compare.py diff BASE_DIR NEW_DIR
      per workload and end-to-end metric: better, worse, unchanged, or
      unresolved (a side's spread exceeds the bound, and not every run of one
      side beats every run of the other); then the median change of every
      other metric, per-layer ones included.

Run from the root of the checkout (BENCHMARK.json is read from there).
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {}
    for m in bench["end_to_end"]:
        metrics[m["name"]] = dict(m, kind="end_to_end")
    for m in bench["per_layer"]:
        metrics[m["name"]] = dict(m, kind="per_layer")
    return bench, metrics


def load_records(directory):
    """{(workload, trace): {metric: [values]}} over every record in DIR."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["workload"], rec["trace"])
        group = groups.setdefault(key, {})
        for name, m in rec["all_metrics"].items():
            group.setdefault(name, []).append(m["value"])
        group.setdefault("_failed", []).append(rec["result"]["failed"])
    return groups


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def cmd_sweep(args):
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    env = dict(os.environ, E2EBENCH_RECORD_DIR=os.path.abspath(args.out))
    here = os.path.dirname(os.path.abspath(__file__))
    for seed in seeds:
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
        last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
        print("seed %d exit %d %s" % (seed, res.returncode, last[:160]), flush=True)
        if res.returncode != 0:
            return res.returncode
    return 0


def cmd_summary(args):
    _, metrics = load_bench()
    groups = load_records(args.dir)
    out = {}
    for (workload, trace), group in sorted(groups.items()):
        rows = out.setdefault(workload, {}).setdefault("trace%d" % trace, {})
        if not args.json:
            print("== %s trace=%d runs=%d failed=%s" %
                  (workload, trace, len(group["_failed"]), sum(group["_failed"])))
        for name, values in group.items():
            kind = metrics.get(name, {}).get("kind")
            if name.startswith("_") or kind is None:
                continue
            # A traced run reports the per-layer metrics; an untraced one the
            # end-to-end metrics plus the ungated workload-specific figures
            # (the per-layer ones read 0 there).
            if (trace and kind != "per_layer") or (
                    not trace and kind != "end_to_end" and not any(values)):
                continue
            q1, med, q3 = quartiles(values)
            bound = metrics[name].get("bound")
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread(values), "runs": len(values)}
            if not args.json:
                flag = ""
                if bound is not None:
                    flag = "ok" if spread(values) <= bound / 3 else (
                        "WITHIN BOUND" if spread(values) <= bound else "TOO WIDE")
                print("  %-30s median %-12.6g spread %6.3f bound %-5s %s" %
                      (name, med, spread(values), bound if bound else "-", flag))
    if args.json:
        json.dump(out, sys.stdout, indent=1, sort_keys=True)
        print()
    return 0


def verdict(base, new, bound, better):
    sign = 1 if better == "higher" else -1
    bmed, nmed = statistics.median(base), statistics.median(new)
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    gain = sign * change
    if max(spread(base), spread(new)) > bound:
        beats = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
        if not beats:
            return change, "unresolved"
        return change, "better"
    if gain < -bound:
        return change, "worse"
    if gain > bound:
        return change, "better"
    return change, "unchanged"


def cmd_diff(args):
    _, metrics = load_bench()
    base, new = load_records(args.base), load_records(args.new)
    status = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print("== %s trace=%d (%d base runs, %d new runs)" %
              (workload, trace, len(base[key]["_failed"]), len(new[key]["_failed"])))
        for name in sorted(set(base[key]) & set(new[key])):
            if name.startswith("_"):
                continue
            m = metrics.get(name, {})
            b, n = base[key][name], new[key][name]
            if not trace and m.get("kind") == "end_to_end":
                change, v = verdict(b, n, m["bound"], m["better"])
                if v == "worse":
                    status = 1
                print("  %-30s %-10s %+7.1f%%  (bound %.0f%%, %s is better)" %
                      (name, v, 100 * change, 100 * m["bound"], m["better"]))
            elif trace or m.get("kind") == "per_layer":
                bmed, nmed = statistics.median(b), statistics.median(n)
                rel = "%+7.1f%%" % (100 * (nmed - bmed) / abs(bmed)) if bmed else "      -"
                print("  %-30s %-10s %s  %.6g -> %.6g" %
                      (name, "delta", rel, bmed, nmed))
    return status


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("summary")
    p.add_argument("dir")
    p.add_argument("--json", action="store_true")
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args()
    return {"sweep": cmd_sweep, "summary": cmd_summary, "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
