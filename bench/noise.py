#!/usr/bin/env python3
"""Noise study of the repo benchmark (results are kept in bench/NOISE.md).

Runs the command in BENCHMARK.json several times per workload and prints, per
workload x end-to-end metric, every value, the median, the largest relative
deviation from the median, and the interquartile spread as a share of the
median next to the metric's bound - the acceptance test the pipeline applies
(spread within the bound, aimed at a third of it). The run.* timing metrics,
which an untraced run prints but the pipeline does not gate, get the same
table without a bound.

    python3 bench/noise.py --seeds 1-10          # ten runs, a different seed each
    python3 bench/noise.py --seeds 42,42,42,42,42  # five runs back to back on one seed
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default="", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--json", default="", help="also write the raw values to this file")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    timing = [m for m in spec["per_layer"] if m["name"].startswith("run.")]
    values = {w: {m["name"]: [] for m in spec["end_to_end"] + timing} for w in names}
    for seed in args.seeds:
        for w in names:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"]:
                sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} failed\n{out}")
            for name, m in res["metrics"].items():
                values[w][name].append(m["value"])
            for line in out.splitlines():  # "metric <workload> <name> <value> ..."
                f = line.split()
                if len(f) > 3 and f[0] == "metric" and f[2].startswith("run."):
                    values[w][f[2]].append(float(f[3]))
            print(f"# {w} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr)
    if args.json:
        json.dump(values, open(args.json, "w"), indent=1)

    print(f"seeds: {args.seeds}\n")
    worst = {}
    for title, metrics in (("end-to-end metrics", spec["end_to_end"]), ("timing metrics, not gated", timing)):
        print(f"{title}\n")
        print("| workload | metric | values | median | max dev | IQR/median | bound |")
        print("|---|---|---|---|---|---|---|")
        for w in names:
            for m in metrics:
                v = values[w][m["name"]]
                med = statistics.median(v)
                dev = max(abs(x - med) for x in v) / med
                spread = 0.0
                if len(v) >= 2:
                    q = statistics.quantiles(v, n=4)
                    spread = (q[2] - q[0]) / med
                worst[m["name"]] = max(worst.get(m["name"], 0.0), spread)
                shown = " ".join(f"{x:.4g}" for x in v)
                bound = f"{m['bound']:.0%}" if "bound" in m else "-"
                print(f"| {w} | {m['name']} | {shown} | {med:.4g} | {dev:.1%} | {spread:.1%} | {bound} |")
        print()
    print("| metric | worst IQR/median over workloads | bound | within a third of the bound |")
    print("|---|---|---|---|")
    for m in spec["end_to_end"]:
        ok = "yes" if worst[m["name"]] <= m["bound"] / 3 else ("setup_s is exempt" if m["name"] == "setup_s" else "NO")
        print(f"| {m['name']} | {worst[m['name']]:.1%} | {m['bound']:.0%} | {ok} |")


if __name__ == "__main__":
    main()
