"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, prints a result line with every
metric named in BENCHMARK.json and its unit; that a perturbed reference value
shows up in ``bench.outputs_changed``; that a forced exception raises
``bench.failed_frac``; and that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark's files.
Scratch files go to ``.bench_out/selftest``.  Exits 0 when every check holds.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "selftest")
REFS = os.path.join(SCRATCH, "refs")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
           "--refs-dir", REFS, *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        print(proc.stderr[-3000:])
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        spec = json.load(f)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(REFS)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = result_of(bench(w, trace, *(["--write-refs"] if trace == 0 else [])))
            if out is None:
                check(False, f"{w} trace {trace}: run failed")
                continue
            res, _ = out
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{w} trace {trace}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{w} trace {trace}: correct with no failed operation")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == wanted[trace], f"{w} trace {trace}: metric names and units")
            check(all(math.isfinite(v["value"]) for v in res["metrics"].values()),
                  f"{w} trace {trace}: finite values")
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()),
                      f"{w}: every end-to-end metric is above zero")
            if trace == 1:
                check(res["metrics"]["bench.outputs_changed"]["value"] == 0,
                      f"{w}: unchanged outputs against its own references")

    # a perturbed reference value is counted as moved
    path = os.path.join(REFS, "cfl_sweep-seed0.json")
    with open(path, encoding="ascii") as f:
        refs = json.load(f)
    key = sorted(refs)[0]
    refs[key] *= 1.0 + 1e-8
    with open(path, "w", encoding="ascii") as f:
        json.dump(refs, f)
    out = result_of(bench("cfl_sweep", 1))
    check(out is not None and out[0]["metrics"]["bench.outputs_changed"]["value"] == 1,
          "perturbed reference shows in bench.outputs_changed")

    # a forced exception counts as a failed operation
    out = result_of(bench("disp_rows", 1, "--inject-failure"))
    check(out is not None and out[0]["metrics"]["bench.failed_frac"]["value"] > 0
          and out[0]["failed"] > 0 and not out[0]["correct"],
          "forced exception raises bench.failed_frac and clears correct")
    out = result_of(bench("wave_long", 0, "--inject-failure"))
    check(out is not None and out[0]["failed"] > 0 and not out[0]["correct"],
          "forced exception in the stepping loop counts failed steps")

    # without the program the benchmark exits non-zero and prints no result
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("hconv", 0, root=bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "refuses to run without the program's sources")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"\n{len(failures)} failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
