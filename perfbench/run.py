"""vemwave benchmark runner.

    python3 perfbench/run.py --workload hconv --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  The run makes its inputs from the seed,
sets up once in this process and twice more in fresh child processes (set-up time
is the median of the three), then repeats the workload's fixed pass of operations
for about ``--seconds`` seconds, but at least the workload's ``min_passes`` times,
and checks every output.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The line before it holds machine information and
run details.  No BLAS or OpenMP thread variable is set by the benchmark.
"""
import time

T_START = time.perf_counter()   # set-up time counts from here, before any import

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_SAMPLES = 3                  # set-ups per run: this process and two children
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
REL_CHANGE = 1e-10                 # a reference value "moved" beyond this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "total_s": "s", "op_ms_p50": "ms",
                    "op_ms_tail": "ms", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="'tiny' shrinks every workload, for the self-test")
    p.add_argument("--refs-dir", default=REFS, help="reference outputs and ceilings")
    p.add_argument("--write-refs", action="store_true",
                   help="store this run's outputs as the references for its seed")
    p.add_argument("--inject-failure", action="store_true",
                   help="make the first operation of every pass raise (self-test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` first on the path and import vemwave from it."""
    if not os.path.isfile(os.path.join(SRC, "vemwave", "__init__.py")):
        sys.exit(f"error: {SRC}/vemwave not found; run from a vemwave source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import vemwave
    if not os.path.abspath(vemwave.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported vemwave from {vemwave.__file__}, not from {SRC}")


# -- machine information ------------------------------------------------------------


def _blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes
    libs = set()
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            for line in f:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    libs.add(path)
    except OSError:
        return {}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def machine_info():
    import platform

    import numpy
    import scipy

    def blas_name(mod):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{blas.get('name')} {blas.get('version')}"
        except Exception:  # show_config layout differs between releases
            return "unknown"

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(), "affinity_cpus": affinity,
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas_name(numpy), "scipy_blas": blas_name(scipy),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "thread_env_set_by_benchmark": False,
    }


# -- references ------------------------------------------------------------------------


def ref_path(refs_dir, workload, seed):
    return os.path.join(refs_dir, f"{workload}-seed{seed}.json")


def load_json(path, default):
    if not os.path.isfile(path):
        return default
    with open(path, encoding="ascii") as f:
        return json.load(f)


def changed_outputs(outputs: dict, refs: dict) -> list[str]:
    """Keys whose value moved more than REL_CHANGE relative, or that appear on
    one side only."""
    moved = []
    for key in sorted(outputs.keys() | refs.keys()):
        if key not in outputs or key not in refs:
            moved.append(key)
            continue
        a, b = outputs[key], refs[key]
        if abs(a - b) > REL_CHANGE * max(abs(a), abs(b)) or a != a:
            moved.append(key)
    return moved


# -- set-up samples in fresh processes ------------------------------------------------


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--refs-dir", args.refs_dir,
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# -- the run ----------------------------------------------------------------------------


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n_samples * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def op_latency(samples, tail_p, np):
    """(typical, tail) operation latency in ms from (kind, ms) samples.

    Operations of one kind (a study point, a sweep row, a leap-frog step) repeat
    every pass.  Each kind gives its median and its ``tail_p`` percentile; the
    typical and tail latencies are the geometric means of these over kinds,
    weighted by each kind's median, that is by its share of a pass.  The
    weighting keeps sub-millisecond rows, whose jitter is larger than their
    cost, from setting the figure.  With a single kind, as in wave_long, these
    are the plain median and tail percentile of the step latencies."""
    by_kind: dict = {}
    for kind, ms in samples:
        by_kind.setdefault(kind, []).append(ms)
    if not by_kind:
        return 0.0, 0.0
    medians = np.array([np.median(v) for v in by_kind.values()])
    tails = np.array([np.percentile(v, tail_p) for v in by_kind.values()])
    weights = medians / medians.sum()
    return (float(np.exp(weights @ np.log(medians))),
            float(np.exp(weights @ np.log(tails))))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    import spans as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return run(args, workdir, np, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, np, tracing, workloads) -> int:
    ceilings = load_json(os.path.join(args.refs_dir, "ceilings.json"), {})
    wl = workloads.WORKLOADS[args.workload](args.scale, args.seed, workdir,
                                            ceilings.get(args.workload, {}))
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        mark_setup = tracer.mark()
    wl.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        setup_window = tracer.window(mark_setup, tracer.mark())
        tracer.uninstall()
        setup_samples = [setup_s]
    else:
        setup_samples = [setup_s] + [child_setup_seconds(args)
                                     for _ in range(SETUP_SAMPLES - 1)]

    # passes: untraced ones give the end-to-end numbers; a traced run alternates
    # untraced and traced passes, at least one traced between two untraced, so
    # that the tracing overhead is measured too
    min_passes = max(wl.min_passes, 3 if tracer else 1)
    pass_s = {False: [], True: []}
    latencies, outputs_by_pass, errors = [], [], []
    attempted = failed = 0
    traced_window = None
    t_begin = time.perf_counter()
    n = 0
    while True:
        traced = bool(tracer) and n % 2 == 1
        rec = workloads.PassRecord(tracer if traced else None, args.inject_failure)
        if traced:
            tracer.install()
            before = tracer.mark()
        start = time.perf_counter()
        wl.run_pass(rec)
        pass_s[traced].append(time.perf_counter() - start)
        if traced:
            tracer.uninstall()
            win = tracer.window(before, tracer.mark())
            traced_window = win if traced_window is None else traced_window + win
        else:
            latencies.extend(rec.latencies_ms)
        attempted += rec.attempted
        failed += rec.failed
        errors.extend(rec.errors)
        outputs_by_pass.append(rec.outputs)
        n += 1
        elapsed = time.perf_counter() - t_begin
        if n >= min_passes and elapsed + elapsed / n > args.seconds:
            break

    refs = load_json(ref_path(args.refs_dir, args.workload, args.seed), None)
    moved = set()
    if refs is not None:
        for outputs in outputs_by_pass:
            moved.update(changed_outputs(outputs, refs))
    if args.write_refs:
        os.makedirs(args.refs_dir, exist_ok=True)
        with open(ref_path(args.refs_dir, args.workload, args.seed), "w",
                  encoding="ascii") as f:
            json.dump(outputs_by_pass[0], f, indent=1, sort_keys=True)

    total_s = statistics.median(pass_s[False])
    tail_p = tail_percentile(wl.ops_per_pass * wl.min_passes)
    limits = ceilings.get(args.workload, {})
    info = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds, "machine": machine_info(),
        "passes": n, "pass_s": pass_s[False][:40], "traced_pass_s": pass_s[True][:40],
        "setup_samples_s": setup_samples, "latency_samples": len(latencies),
        "op_tail_percentile": tail_p, "outputs_compared": 0 if refs is None else len(refs),
        "outputs_changed": sorted(moved)[:20], "outputs_changed_count": len(moved),
        "ceiling_use_max": max((v / limits[k] for k, v in outputs_by_pass[0].items()
                                if k in limits), default=None),
        "errors": errors[:10],
    }
    if tracer:
        per_pass = traced_window.scaled(1.0 / len(pass_s[True]))
        metrics = tracing.layer_metrics(setup_window + per_pass, tracer.extrema,
                                        getattr(wl, "dt", None))
        units = dict(tracing.LAYER_UNITS)
        # means, because the per-layer figures are means over the traced passes
        untraced_total = statistics.mean(pass_s[False])
        traced_total = statistics.mean(pass_s[True])
        layer_self = sum(per_pass.self_s.values())
        metrics.update({
            "bench.outputs_changed": len(moved),
            "bench.failed_frac": failed / max(attempted, 1),
            "trace.untraced_total_s": untraced_total,
            "trace.traced_total_s": traced_total,
            "trace.overhead_s": traced_total - untraced_total,
            "trace.layer_self_s": layer_self,
            "trace.attributed_frac": layer_self / traced_total,
        })
        units.update({"bench.outputs_changed": "count", "bench.failed_frac": "ratio",
                      "trace.untraced_total_s": "s", "trace.traced_total_s": "s",
                      "trace.overhead_s": "s", "trace.layer_self_s": "s",
                      "trace.attributed_frac": "ratio"})
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path)
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        typical, tail = op_latency(latencies, tail_p, np)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "total_s": total_s,
            "op_ms_p50": typical,
            "op_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
