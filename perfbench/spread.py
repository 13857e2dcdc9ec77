#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload dns-campus --seeds 1-10 [--trace 0]

For every metric it prints the median of the per-run values and the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of that median, the figure BENCHMARK.json's bounds are
checked against. Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--show", action="store_true", help="print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit("seed %d failed (exit %d):\n%s%s" % (seed, out.returncode, out.stdout[-2000:], out.stderr[-2000:]))
        res = json.loads(last)
        if not res["correct"]:
            sys.exit("seed %d: incorrect result" % seed)
        for name, m in res["metrics"].items():
            runs.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)
    for name, vals in sorted(runs.items()):
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(name)
        flag = ""
        if b is not None and name != "setup_s":
            flag = "ok" if spread <= b / 3 else ("within bound" if spread <= b else "OVER BOUND")
        print("%-34s median=%-14.6g spread=%-8.4f bound=%-6s %s" % (name, med, spread, b, flag))
        if args.show:
            print("    " + " ".join("%.4g" % v for v in vals))


if __name__ == "__main__":
    main()
