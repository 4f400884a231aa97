"""bfsmooth benchmark: four closed-loop workloads driven through the public API.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload predict --seed 1 --seconds 20 --trace 0

Run every workload, untraced and traced, and print the tracing overhead:

    python3 perfbench/run.py --seed 1

The benchmark builds nothing: it imports bfsmooth from ``src/`` of the
checkout it lives in and exits with status 2, printing no result, when
those sources are missing.  Working files go to ``.bench_work/`` in that
checkout.  With ``--trace 0`` the result holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a run whose calls into every
layer are timed (see README.md for which metric each layer should move).
End-to-end times are scaled to a reference host speed (hostspeed.py);
the wall-clock figures are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_work" / "results"
WORKLOAD_NAMES = ("approx_stream", "exact_dense", "predict", "rho_tune")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (name, unit) of the end-to-end metrics in every untraced result
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("items_per_s", "1/s"),
    ("err_max", "1"),
    ("peak_rss_mb", "MB"),
)
# (name, unit) of the metrics that are printed but not in the JSON result
REPORT_ONLY = (
    ("wall_setup_s", "s"),
    ("wall_ops_per_s", "1/s"),
    ("wall_latency_p50_s", "s"),
    ("wall_latency_p90_s", "s"),
    ("probe_s", "s"),
    ("fail_ratio", "1"),
)
P90_MIN_OPS = 100


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="problem sizes; tiny only checks the plumbing")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas": f"{blas['name']} {blas['version']}",
        "cpu": cpu, "python": platform.python_version(),
    }


def measure(wl, seconds: float, tracer):
    """Set the workload up, then run closed-loop ops until `seconds` pass."""
    from hostspeed import probe
    from tracing import CHECK_OP, SETUP_OP
    from workloads import OP_ERRORS, SETUP_REPEATS, OpFailure

    def phase(op):
        if tracer is not None:
            tracer.op = op

    setup_times = []
    for r in range(SETUP_REPEATS):
        phase(SETUP_OP)
        t0 = time.perf_counter()
        wl.shards.append(wl.build_shard(r))
        setup_times.append(time.perf_counter() - t0)

    ops = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        i = len(ops)
        rec = {"op": i, "error": None}
        phase(i)
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
        except OP_ERRORS as exc:
            out, rec["error"] = None, f"{type(exc).__name__}: {exc}"
        rec["latency"] = time.perf_counter() - t0
        rec["probe"] = probe(wl.name, rec["latency"])
        phase(CHECK_OP)
        if out is not None:
            try:
                rec["err_max"] = wl.check(i, out)
                rec["items"] = wl.items_done(i, out)
                rec["entries_needed"] = wl.entries_needed(i, out)
            except (OpFailure, *OP_ERRORS) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
        if rec["error"]:
            print(f"op {i} FAILED: {rec['error']}", file=sys.stderr)
        ops.append(rec)
    return setup_times, ops


def end_to_end(setup_times, ops, cycle: int,
               reference_s: float | None) -> tuple[dict, dict]:
    """End-to-end metrics, and the report-only ones measured in wall time.

    The host's speed drifts by up to 2x for minutes at a time, so the
    timing metrics are in seconds of the reference host (hostspeed.py):
    wall times are scaled by `reference_s` over the run's median probe
    time.  A workload without a probe (reference_s None) reports wall
    times.  Ops i and j are alike when i % cycle == j % cycle (predict
    alternates two models, for example).  The median latency is taken
    per class of alike ops and averaged over the classes, so that every
    part of the op mix counts however many ops of it a run holds.
    """
    probe_s = statistics.median(r["probe"] for r in ops) if reference_s else None
    scale = reference_s / probe_s if reference_s else 1.0
    good = [r for r in ops if r["error"] is None]
    busy = sum(r["latency"] for r in ops)
    lat = [r["latency"] for r in good]
    classes = [[r for r in good if r["op"] % cycle == c] for c in range(cycle)]
    classes = [c for c in classes if c]
    p50 = [scale * statistics.median(r["latency"] for r in c) for c in classes]
    items = [statistics.fmean(r["items"] for r in c) for c in classes]
    # null when no op verified; such a run is not correct anyway
    metrics = {
        "setup_s": scale * statistics.median(setup_times),
        "latency_p50_s": statistics.fmean(p50) if good else None,
        "items_per_s": sum(items) / sum(p50) if good else None,
        "err_max": statistics.median(r["err_max"] for r in good) if good else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "wall_setup_s": statistics.median(setup_times),
        "wall_ops_per_s": len(good) / busy,
        "wall_latency_p50_s": statistics.median(lat) if good else None,
        "wall_latency_p90_s": (statistics.quantiles(lat, n=10)[-1]
                               if len(lat) >= P90_MIN_OPS else None),
        "probe_s": probe_s,
        "fail_ratio": (len(ops) - len(good)) / len(ops),
    }
    return metrics, extra


def run_workload(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    if not (src / "bfsmooth" / "__init__.py").is_file():
        print(f"error: no bfsmooth sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from hostspeed import REFERENCE_S
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import SCALES, SETUP_REPEATS, WORKLOADS

    env = environment(args, nproc)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        wl = WORKLOADS[args.workload](SCALES[args.scale], args.seed, workdir)
        setup_times, ops = measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir)

    metrics, extra = end_to_end(setup_times, ops, wl.cycle, REFERENCE_S.get(args.workload))
    failed = sum(r["error"] is not None for r in ops)
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(ops)}  failed {failed}  setups {len(setup_times)}")
    print("env " + json.dumps(env))
    for name, unit in END_TO_END + REPORT_ONLY:
        value = metrics[name] if name in metrics else extra[name]
        note = f"  ({wl.items})" if name == "items_per_s" else ""
        if name == "wall_latency_p90_s" and value is None:
            note = f"  (fewer than {P90_MIN_OPS} ops)"
        if name == "probe_s" and value is None:
            note = "  (no probe: times are wall times)"
        value = "n/a" if value is None else repr(value)
        print(f"metric {name} {value} {unit}{note}")

    result = {"env": env, "end_to_end": metrics, "extra": extra,
              "setup_times": setup_times, "ops": ops}
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    if tracer is not None:
        # whole cycles of the op mix only, so that computed counts repeat
        counted = ops[:len(ops) - len(ops) % wl.cycle] or ops
        layers = layer_metrics(tracer, {r["op"] for r in counted}, SETUP_REPEATS,
                               sum(r.get("entries_needed", 0) for r in counted))
        for name, unit, _ in PER_LAYER:
            print(f"layer {name} {layers[name]!r} {unit}")
        result["per_layer"] = layers
        result["counted_ops"] = len(counted)
        tracer.write(stem.with_suffix(".spans.jsonl"))
        reported = {name: {"value": layers[name], "unit": unit}
                    for name, unit, _ in PER_LAYER}
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced."""
    correct, attempted, failed, summary = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        e2e = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} trace={trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            saved = RESULTS / f"{name}-seed{args.seed}-trace{trace}.json"
            e2e[trace] = json.loads(saved.read_text())["end_to_end"]
        for metric, unit in END_TO_END:
            summary[f"{name}.{metric}"] = {"value": e2e[0][metric], "unit": unit}
        for metric in ("latency_p50_s", "items_per_s"):
            base, traced = e2e[0][metric], e2e[1][metric]
            print(f"trace_overhead {name}.{metric} {traced - base:+.6g} "
                  f"({100 * (traced - base) / base:+.2f}%)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
