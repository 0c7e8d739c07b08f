#!/usr/bin/env python3
"""A/A steadiness check for the repo benchmark.

Runs the full benchmark twice on the same build -- set A, then set B,
each `--runs` runs per workload with seeds 1..runs -- and prints, for
every end-to-end metric x workload:

  spread  (Q3 - Q1) / median of a set's runs, per
          statistics.quantiles(values, n=4)
  shift   how much worse set B's median is than set A's, as a share
          of A's median (negative = B better)

against the metric's bound from BENCHMARK.json. A metric passes when
both spreads stay within its bound (setup_s is exempt from the spread
rule) and the shift does too. Exit code 1 when any check fails.

Usage, from the root of a source checkout:

    python3 perfbench/aa.py                      # 2 sets x 10 runs
    python3 perfbench/aa.py --sets 1 --runs 5 --workloads fleet-epoch
    python3 perfbench/aa.py --out perfbench/AA_SPREAD.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"aa: {' '.join(cmd)} failed ({r.returncode}):\n"
                 f"{r.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"aa: {workload} seed {seed} reported incorrect output:"
                 f"\n{r.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=names,
                    choices=names)
    ap.add_argument("--out", help="write the measured spreads as JSON")
    args = ap.parse_args()
    metrics = spec["end_to_end"]

    t0 = time.time()
    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in args.workloads}
        for seed in range(1, args.runs + 1):
            for w in args.workloads:
                runs[w].append(run_once(spec, w, seed, args.seconds))
        sets.append(runs)

    ok = True
    record = {"runs_per_set": args.runs, "sets": args.sets,
              "run_seconds": args.seconds, "results": []}
    print(f"{'workload':17} {'metric':17} {'bound':>6} {'spreadA':>8} "
          f"{'spreadB':>8} {'medianA':>12} {'medianB':>12} {'shift':>7}")
    for w in args.workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r[name] for r in runs[w]] for runs in sets]
            spreads = [spread(v) for v in vals]
            meds = [statistics.median(v) for v in vals]
            row = {"workload": w, "metric": name, "bound": bound,
                   "spreads": spreads, "medians": meds}
            bad = name != "setup_s" and max(spreads) > bound
            shift = None
            if len(meds) == 2:
                shift = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    shift = -shift
                row["shift"] = shift
                bad = bad or shift > bound
            ok = ok and not bad
            record["results"].append(row)
            sp = " ".join(f"{x:8.4f}" for x in spreads)
            md = " ".join(f"{x:12.6g}" for x in meds)
            sh = f"{shift:7.4f}" if shift is not None else ""
            print(f"{w:17} {name:17} {bound:6.3f} {sp} {md} {sh}"
                  f"{'  FAIL' if bad else ''}")
    print(f"aa: {'PASS' if ok else 'FAIL'} in {time.time() - t0:.0f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
