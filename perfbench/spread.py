"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads hconv,disp_rows --seeds 0-9

Runs the benchmark once per (workload, seed), one run at a time, and prints for
each end-to-end metric the median and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the metric's bound from BENCHMARK.json.  The runs are kept in
``.bench_out/spread-<label>.json``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S"))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
            runs.append({"workload": workload, "seed": seed, "wall_s": wall,
                         "result": result, "outputs_changed": info["outputs_changed_count"]})
            print(f"{workload} seed {seed}: wall {wall:.1f}s correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} changed "
                  f"{info['outputs_changed_count']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"spread-{args.label}.json"), "w",
              encoding="ascii") as f:
        json.dump(runs, f, indent=1)
    print(f"\n{'workload':10} {'metric':12} {'median':>10} {'iqr/med':>8} {'bound/3':>8}")
    for workload in args.workloads.split(","):
        mine = [r["result"]["metrics"] for r in runs if r["workload"] == workload]
        for name in mine[0]:
            values = [m[name]["value"] for m in mine]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- wide"
            print(f"{workload:10} {name:12} {med:10.4g} {spread:8.3f} "
                  f"{bounds[name] / 3:8.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
