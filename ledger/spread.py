#!/usr/bin/env python3
"""Run the ledger several times, one seed per run, and report for every
end-to-end metric the median, the quartiles and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json.

Run from the root of a TANGO checkout:

  python3 ledger/spread.py --runs 10                      # every workload
  python3 ledger/spread.py --workload oltp_mixed --runs 5 --save base.json
  python3 ledger/spread.py --workload oltp_mixed --runs 5 --against base.json

--save writes the summary; --against compares this run's medians with a
saved summary and flags every metric that got worse by more than its
bound.  Exits 1 when a run is incorrect or a metric regressed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "ledger/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    baseline = json.load(open(args.against)) if args.against else {}
    ok = True
    summary = {}
    for w in workloads:
        results = [run_once(w, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        if not all(r["correct"] for r in results):
            print(f"{w}: INCORRECT run(s)")
            ok = False
        summary[w] = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "runs": args.runs}
            line = (f"{w:14} {name:16} median {med:12.4f} {m['unit']:4} "
                    f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:6.3f} "
                    f"(bound {bound})")
            base = baseline.get(w, {}).get(name)
            if base:
                change = (med - base["median"]) / base["median"]
                worse = change if m["better"] == "lower" else -change
                line += f" vs base {change:+.3f}"
                if worse > bound:
                    line += " REGRESSED"
                    ok = False
            print(line, flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
