#!/usr/bin/env python3
"""Compare two sets of benchmark runs, one row per workload and metric.

Run a parent and a change checkout in alternating order with `ab` (it writes
JSON lines, one benchmark result per line), then compare the files with `diff`:

    python3 perfbench/compare.py ab PARENT_DIR CHANGE_DIR --seeds 1-10 \
        --out runs            # writes runs.parent.jsonl / runs.change.jsonl
    python3 perfbench/compare.py diff runs.parent.jsonl runs.change.jsonl

Verdicts, per workload and end-to-end metric, with direction and bound from
BENCHMARK.json:

  better      the change wins at least 9 of every 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  unresolved  either side's interquartile range exceeds the bound, unless
              every change run beats every parent run;
  same        none of the above.

`diff` exits 1 when any row is `worse`.
"""
import argparse
import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

Row = collections.namedtuple(
    "Row", "workload metric better parent change verdict")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pair_wins(parent, change, better):
    """(wins, pairs): pairs where the change is strictly better."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return wins, min(len(parent), len(change))


def verdict(parent, change, better, bound):
    """Classify one workload/metric row (see the module docstring)."""
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins, pairs = pair_wins(parent, change, better)
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if worse_by > bound:
        return "worse"
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    if pairs and wins * 10 >= 9 * pairs and sign * (c_med - p_med) > p_q3 - p_q1:
        return "better"
    return "same"


def load_runs(path):
    """{workload: [result, ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                row = json.loads(line)
                runs.setdefault(row["workload"], []).append(row)
    return runs


def compare(parent_runs, change_runs, spec):
    """One Row per workload (in BENCHMARK.json order) and end-to-end metric
    present on both sides."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = parent_runs.get(workload, [])
        change = change_runs.get(workload, [])
        if not parent or not change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["result"]["metrics"][name]["value"] for r in parent
                 if name in r["result"]["metrics"]]
            c = [r["result"]["metrics"][name]["value"] for r in change
                 if name in r["result"]["metrics"]]
            if p and c:
                rows.append(Row(workload, name, metric["better"], p, c,
                                verdict(p, c, metric["better"], metric["bound"])))
    return rows


def format_rows(rows):
    lines = [f"{'workload':9} {'metric':16} {'parent median [q1, q3]':34} "
             f"{'change median [q1, q3]':34} {'wins':>6}  verdict"]
    for workload, name, better, p, c, v in rows:
        pq, cq = quartiles(p), quartiles(c)
        wins, pairs = pair_wins(p, c, better)
        lines.append(
            f"{workload:9} {name:16} "
            f"{pq[1]:11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(61) + " "
            f"{cq[1]:11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(35) +
            f"{wins:>3}/{pairs:<3} {v}")
    return "\n".join(lines)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout, spec, workload, seed, trace="0"):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", trace]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{out.returncode}")
    return {"workload": workload, "seed": seed, "checkout": checkout,
            "result": json.loads(lines[-1])}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    parser.add_argument("--spec", default=DEFAULT_SPEC, help="BENCHMARK.json")
    sub = parser.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("diff", help="compare two JSON-lines run files")
    d.add_argument("parent")
    d.add_argument("change")
    ab = sub.add_parser("ab", help="alternate parent/change runs, then diff")
    ab.add_argument("parent")
    ab.add_argument("change")
    ab.add_argument("--seeds", default="1-10")
    ab.add_argument("--workloads", default="")
    ab.add_argument("--out", required=True, help="prefix of the two run files")
    args = parser.parse_args(argv)

    with open(args.spec) as f:
        spec = json.load(f)
    if args.cmd == "diff":
        rows = compare(load_runs(args.parent), load_runs(args.change), spec)
        print(format_rows(rows))
        return 1 if any(r.verdict == "worse" for r in rows) else 0

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    files = {side: f"{args.out}.{side}.jsonl" for side in ("parent", "change")}
    handles = {side: open(path, "w") for side, path in files.items()}
    for workload in workloads:
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                row = run_one(getattr(args, side), spec, workload, seed)
                handles[side].write(json.dumps(row) + "\n")
                handles[side].flush()
    for h in handles.values():
        h.close()
    rows = compare(load_runs(files["parent"]), load_runs(files["change"]), spec)
    print(format_rows(rows))
    return 1 if any(r.verdict == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
