#!/usr/bin/env python3
"""Repeat the benchmark and compare sets of runs.

Run from the repository root.

    python3 perfbench/ledger.py sweep OUT_DIR [--runs 10] [--first-seed 1]
                                       [--workloads a,b] [--trace 0|1]
        Runs every workload (or the listed ones) RUNS times, each with its
        own seed, saves each result line as OUT_DIR/<workload>-<seed>.json,
        checks it against BENCHMARK.json and prints the spreads.

    python3 perfbench/ledger.py spread DIR
        Per workload and end-to-end metric: median, quartiles and the
        quartile spread as a share of the median, against the bound.

    python3 perfbench/ledger.py compare BASE_DIR NEW_DIR
        Per workload and end-to-end metric: both sets' medians and
        quartiles, the share of seed-matched pairs NEW wins (ties count
        for neither), and whether NEW stays inside the metric's bound;
        per workload, the failed and attempted counts of seed-matched runs,
        which must agree.

Quartiles are statistics.quantiles(values, n=4), Python's default
(exclusive) method.  A spread above a third of its bound is flagged: such
a metric is too noisy to resolve a change near the bound.
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def load_spec(path="BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def check_result(spec, res, trace):
    """Problems with one result line against BENCHMARK.json."""
    want = spec["per_layer"] if trace else spec["end_to_end"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(res))
        return problems
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted %r" % res["attempted"])
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        problems.append("failed %r" % res["failed"])
    names = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    if set(got) != set(names):
        problems.append("metric names differ: missing %s, extra %s"
                        % (sorted(set(names) - set(got)), sorted(set(got) - set(names))))
    for n, m in got.items():
        if not NAME.match(n):
            problems.append("bad metric name %r" % n)
        if n in names and m.get("unit") != names[n]:
            problems.append("%s: unit %r, expected %r" % (n, m.get("unit"), names[n]))
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s: value %r" % (n, m.get("value")))
    return problems


def load_dir(d):
    """{workload: {seed: result}} from <workload>-<seed>.json files."""
    runs = {}
    for p in sorted(glob.glob(os.path.join(d, "*.json"))):
        w, _, seed = os.path.basename(p)[:-5].rpartition("-")
        with open(p) as f:
            runs.setdefault(w, {})[int(seed)] = json.load(f)
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


def worse_by(base, new, better):
    """How much worse NEW's median is than BASE's, as a share of BASE."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    return (new - base) / base if better == "lower" else (base - new) / base


def pair_wins(base, new, better):
    """Share of seed-matched pairs where NEW beats BASE; ties count for neither."""
    seeds = sorted(set(base) & set(new))
    if not seeds:
        return 0.0, 0
    wins = sum(1 for s in seeds if (new[s] < base[s] if better == "lower" else new[s] > base[s]))
    return wins / len(seeds), len(seeds)


def values(runs, metric):
    return {s: r["metrics"][metric]["value"] for s, r in runs.items() if metric in r["metrics"]}


def cmd_spread(args):
    spec = load_spec()
    runs = load_dir(args.dir)
    ok = True
    print("%-18s %-12s %5s %12s %12s %12s %8s %6s" % ("workload", "metric", "n", "q1", "median", "q3", "spread", "bound"))
    for w in sorted(runs):
        failed = sum(r["failed"] for r in runs[w].values())
        attempted = sum(r["attempted"] for r in runs[w].values())
        incorrect = sum(1 for r in runs[w].values() if not r["correct"])
        for m in spec["end_to_end"]:
            v = list(values(runs[w], m["name"]).values())
            if not v:
                continue
            q1, q2, q3 = quartiles(v)
            s = spread(v)
            flag = "" if s <= m["bound"] / 3 else (" WIDE" if s > m["bound"] else " >1/3")
            ok = ok and s <= m["bound"]
            print("%-18s %-12s %5d %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (w, m["name"], len(v), q1, q2, q3, s, m["bound"], flag))
        print("%-18s failed %d of %d attempted, %d run(s) not correct" % (w, failed, attempted, incorrect))
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    base, new = load_dir(args.base), load_dir(args.new)
    ok = True
    print("%-18s %-12s %12s %22s %12s %22s %8s %9s %s" % (
        "workload", "metric", "base med", "base q1..q3", "new med", "new q1..q3", "worse", "new wins", "verdict"))
    for w in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            b, n = values(base[w], m["name"]), values(new[w], m["name"])
            if not b or not n:
                continue
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            worse = worse_by(bq[1], nq[1], m["better"])
            share, pairs = pair_wins(b, n, m["better"])
            inside = worse <= m["bound"]
            wide = max(spread(list(b.values())), spread(list(n.values()))) > m["bound"]
            verdict = "unresolved (spread wider than bound)" if wide else ("inside bound" if inside else "REGRESSION")
            ok = ok and inside
            print("%-18s %-12s %12.6g %10.6g..%-10.6g %12.6g %10.6g..%-10.6g %+8.3f %5.2f/%-3d %s" % (
                w, m["name"], bq[1], bq[0], bq[2], nq[1], nq[0], nq[2], worse, share, pairs, verdict))
        # The counts follow the seed alone, so seed-matched runs must agree.
        seeds = sorted(set(base[w]) & set(new[w]))
        counts = [(s, base[w][s]["failed"], base[w][s]["attempted"], new[w][s]["failed"], new[w][s]["attempted"])
                  for s in seeds]
        differ = [c for c in counts if c[1:3] != c[3:5]]
        ok = ok and not differ
        print("%-18s failed %d of %d (base), %d of %d (new) over %d seed(s)%s" % (
            w, sum(c[1] for c in counts), sum(c[2] for c in counts), sum(c[3] for c in counts),
            sum(c[4] for c in counts), len(counts),
            "".join(" DIFFER at seed %d: %d/%d vs %d/%d;" % c for c in differ)))
    return 0 if ok else 1


def cmd_sweep(args):
    spec = load_spec()
    os.makedirs(args.out, exist_ok=True)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bad = 0
    for w in names:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print("%s seed %d: exit %d, no result" % (w, seed, p.returncode), file=sys.stderr)
                bad += 1
                continue
            res = json.loads(lines[-1])
            for problem in check_result(spec, res, args.trace == 1):
                print("%s seed %d: %s" % (w, seed, problem), file=sys.stderr)
                bad += 1
            with open(os.path.join(args.out, "%s-%d.json" % (w, seed)), "w") as f:
                f.write(lines[-1] + "\n")
            print("%s seed %d: %s" % (w, seed, lines[-1] if args.trace == 0 else "ok"), flush=True)
    if args.trace == 0:
        args.dir = args.out
        return cmd_spread(args) or (1 if bad else 0)
    return 1 if bad else 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("out")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    s.add_argument("--workloads", default="")
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s.set_defaults(fn=cmd_sweep)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    s.set_defaults(fn=cmd_spread)
    s = sub.add_parser("compare")
    s.add_argument("base")
    s.add_argument("new")
    s.set_defaults(fn=cmd_compare)
    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
