"""Regenerate the stored reference outputs and the physics-check ceilings.

    python3 perfbench/make_refs.py

References are kept for the default seed 0 and the held-out seed 7.  The ceiling
of each error norm is twice the larger of its two reference values.  Run this only
when a change is meant to move the outputs, and say so in the change.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = (0, 7)
CEILING_FACTOR = 2.0
WORKLOADS = ("hconv", "wave_long", "cfl_sweep", "disp_rows")


def main() -> int:
    refs_dir = os.path.join(HERE, "refs")
    os.makedirs(refs_dir, exist_ok=True)
    ceilings_path = os.path.join(refs_dir, "ceilings.json")
    if os.path.exists(ceilings_path):
        os.remove(ceilings_path)          # references are taken without ceilings
    ceilings = {}
    for workload in WORKLOADS:
        worst = {}
        for seed in SEEDS:
            subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--workload", workload, "--seed", str(seed),
                            "--seconds", "0", "--write-refs"],
                           check=True, stdout=subprocess.DEVNULL)
            with open(os.path.join(refs_dir, f"{workload}-seed{seed}.json"),
                      encoding="ascii") as f:
                for key, value in json.load(f).items():
                    if key.rsplit("/", 1)[-1] in ("err_l2", "err_h1"):
                        worst[key] = max(worst.get(key, 0.0), value)
        if worst:
            ceilings[workload] = {k: CEILING_FACTOR * v for k, v in sorted(worst.items())}
    with open(ceilings_path, "w", encoding="ascii") as f:
        json.dump(ceilings, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
