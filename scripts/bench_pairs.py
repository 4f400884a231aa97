"""Paired benchmark runs of a parent and a changed checkout.

For each seed, runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, alternating which side goes first
(the parent on the first seed, the change on the second, and so on). T is
BENCHMARK.json's ``run_seconds``, so both sides run as long as the
benchmark does. It reads the JSON result on the last line of each run's
output and prints, per end-to-end metric of BENCHMARK.json, both sides'
median and quartiles, the number of pairs the change won (ties count for
neither side) and a verdict against the metric's ``bound`` (`verdict`);
``gain`` marks a claimed gain that holds.  Beside that table it prints
both sides' median and quartiles of the unscaled ``wall_latency_p50_s``
each run saved, since the host-speed scaling can hide part of a gain, and
of the host-speed probe's ``probe_s`` that the scaling divides by ("not
reported" for a workload without a probe); both lines are report only.

After each pair it also compares the per-op records the two runs saved
(``.bench_work/results/W-seedS-trace0.json`` in each checkout): every op
index both ran must show the same ``err_max`` and ``items``. It exits 1
when any of them differ, and prints the largest relative ``err_max``
difference, so that a change at the rounding level reads as one.

With ``--trace``, each side runs once per seed with ``--trace 1``
instead, and the script prints, per seed, each computed count of the
traced run (the per-layer metrics of BENCHMARK.json whose unit is a
count, a row order, flops or a ratio of counts: kernel entries, calls,
orders, evals) for both sides, marking any that differ with DIFFER. It
exits 1 when any count differs. Those counts carry no timing noise, so
one run per side shows removed work.

Usage:
    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload rho_tune --seeds 61-70
    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload exact_dense --seeds 1 --trace
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
GAIN_SHARE = 0.9  # share of the pairs a claimed gain must win
OP_OUTPUTS = ("err_max", "items")  # per-op record fields both sides must agree on
WALL = "wall_latency_p50_s"  # report only: wall time, not scaled by the host probe
PROBE = "probe_s"  # report only: the host-speed probe's median time per run
COUNT_UNITS = ("count/op", "rows", "flop/op", "ratio")  # per-layer metrics computed, not timed


def parse_result(stdout: str) -> dict:
    """The JSON result on the last non-blank line of a run's output."""
    return json.loads(stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    """'61-70' or '1,2,5' to a list of seeds."""
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs (parent[i], change[i]) the change won; ties count for neither."""
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], metric: dict) -> str:
    """Of paired runs: 'worse' if the change's median is worse than the
    parent's by more than bound x |parent median|; else 'gain' if the change
    won at least GAIN_SHARE of the pairs and its median is better by more
    than the parent's q3 - q1; else 'unresolved' if the parent's q3 - q1
    exceeds the bound and not every change run beats every parent run;
    else 'ok'."""
    won = wins(parent, change, metric["better"])
    if metric["better"] == "higher":  # compare as lower-is-better
        parent, change = [-v for v in parent], [-v for v in change]
    q1, median, q3 = quartiles(parent)
    bound = metric["bound"] * abs(median)
    gap = median - quartiles(change)[1]  # > 0 when the change is better
    if -gap > bound:
        return "worse"
    if won >= GAIN_SHARE * len(parent) and gap > q3 - q1:
        return "gain"
    if q3 - q1 > bound and max(change) >= min(parent):
        return "unresolved"
    return "ok"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric from (parent, change) results of paired runs.

    `metrics` are BENCHMARK.json end-to-end entries (name, better, bound).
    A pair in which either side's value is None is left out of its row.
    """
    rows = []
    for metric in metrics:
        name = metric["name"]
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs]
        values = [(p, c) for p, c in values if p is not None and c is not None]
        if not values:
            continue
        parent, change = [p for p, _ in values], [c for _, c in values]
        rows.append({"name": name, "better": metric["better"],
                     "parent": quartiles(parent), "change": quartiles(change),
                     "wins": wins(parent, change, metric["better"]),
                     "pairs": len(values),
                     "verdict": verdict(parent, change, metric)})
    return rows


def op_differences(parent_ops: list[dict], change_ops: list[dict]) -> list[str]:
    """err_max and items that differ between two runs' op records, on the
    op indices both runs reached (a failed op has neither)."""
    diffs = []
    for p, c in zip(parent_ops, change_ops):
        diffs.extend(f"op {p['op']} {key}: parent {p.get(key)!r}, change {c.get(key)!r}"
                     for key in OP_OUTPUTS if p.get(key) != c.get(key))
    return diffs


def err_max_change(parent_ops: list[dict], change_ops: list[dict]) -> float:
    """Largest |change - parent| / |parent| of err_max over the common op
    indices where both runs have one (0.0 when they all agree)."""
    return max((abs(c["err_max"] - p["err_max"]) / abs(p["err_max"])
                if p["err_max"] else math.inf
                for p, c in zip(parent_ops, change_ops)
                if p.get("err_max") is not None and c.get("err_max") is not None
                and p["err_max"] != c["err_max"]), default=0.0)


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':<16} {'parent median (q1-q3)':<34} "
             f"{'change median (q1-q3)':<34} {'verdict':<10} change won"]
    for row in rows:
        sides = [f"{m:.6g} ({q1:.6g}-{q3:.6g})"
                 for q1, m, q3 in (row["parent"], row["change"])]
        lines.append(f"{row['name']:<16} {sides[0]:<34} {sides[1]:<34} "
                     f"{row['verdict']:<10} "
                     f"{row['wins']} of {row['pairs']} ({row['better']} is better)")
    return "\n".join(lines)


def format_extra(pairs: list[tuple[dict, dict]], name: str, what: str) -> str:
    """Both sides' median (q1-q3) of the saved extra `name` over the pairs
    that report it, as a report-only line described by `what`."""
    values = [(p["extra"].get(name), c["extra"].get(name)) for p, c in pairs]
    values = [(p, c) for p, c in values if p is not None and c is not None]
    if not values:
        return f"{name}: not reported"
    sides = [f"{m:.6g} ({q1:.6g}-{q3:.6g})"
             for q1, m, q3 in (quartiles([v[i] for v in values]) for i in (0, 1))]
    return f"{name:<16} {sides[0]:<34} {sides[1]:<34} {what}, report only"


def count_names(per_layer: list[dict]) -> list[str]:
    """The computed counts among BENCHMARK.json's per-layer metrics."""
    return [m["name"] for m in per_layer if m["unit"] in COUNT_UNITS]


def count_rows(parent: dict, change: dict, names: list[str]) -> list[tuple]:
    """(name, parent value, change value, differ) of traced runs' "metrics",
    for the names either run reports."""
    return [(name, parent[name]["value"] if name in parent else None,
             change[name]["value"] if name in change else None,
             parent.get(name) != change.get(name))
            for name in names if name in parent or name in change]


def format_counts(seed: int, rows: list[tuple]) -> str:
    lines = [f"{f'seed {seed} computed counts per op':<58} {'parent':>16} {'change':>16}"]
    lines += [f"  {name:<56} {p!r:>16} {c!r:>16}{'  DIFFER' if differ else ''}"
              for name, p, c, differ in rows]
    return "\n".join(lines)


def compare_counts(args, names: list[str], seconds: float) -> int:
    """Traced runs, one per side and seed: print the computed counts side
    by side and return 1 if any differ."""
    differing = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        sides = {side: run_side(getattr(args, side), args.workload, seed, seconds,
                                trace=1) for side in order}
        rows = count_rows(sides["parent"]["metrics"], sides["change"]["metrics"], names)
        differing += sum(row[3] for row in rows)
        print(format_counts(seed, rows), flush=True)
    print(f"computed counts that differ: {differing}")
    return 1 if differing else 0


def run_side(root: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One run's JSON result, with the per-op records and the report-only
    metrics it saved added under "ops" and "extra"; a traced run's
    "metrics" are its per-layer metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}")
    result = parse_result(proc.stdout)
    saved = root / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    saved = json.loads(saved.read_text())
    result["ops"], result["extra"] = saved["ops"], saved["extra"]
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="61-70", help="e.g. 61-70 or 1,2,5")
    ap.add_argument("--trace", action="store_true",
                    help="compare the computed counts of traced runs instead")
    args = ap.parse_args(argv)

    benchmark = json.loads(BENCHMARK.read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    if args.trace:
        return compare_counts(args, count_names(benchmark["per_layer"]), seconds)
    pairs, differing, err_change = [], 0, 0.0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        sides = {}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side] = run_side(getattr(args, side), args.workload, seed, seconds)
        pairs.append((sides["parent"], sides["change"]))
        for side in ("parent", "change"):
            result = sides[side]
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']!r}"
                              for m in metrics)
            print(f"seed {seed} {side}{' (first)' if side == order[0] else ''}: "
                  f"failed {result['failed']}/{result['attempted']} {values}", flush=True)
        parent_ops, change_ops = sides["parent"]["ops"], sides["change"]["ops"]
        diffs = op_differences(parent_ops, change_ops)
        differing += bool(diffs)
        err_change = max(err_change, err_max_change(parent_ops, change_ops))
        print(f"seed {seed} per-op {'/'.join(OP_OUTPUTS)} on "
              f"{min(len(parent_ops), len(change_ops))} common ops: "
              f"{'DIFFER' if diffs else 'identical'}", flush=True)
        for line in diffs:
            print(f"  {line}")
    print(format_rows(summarize(pairs, metrics)))
    print(format_extra(pairs, WALL, "wall time"))
    print(format_extra(pairs, PROBE, "host-speed probe"))
    if differing:
        print(f"per-op outputs differ in {differing} of {len(pairs)} pairs; "
              f"largest relative err_max difference {err_change:.3g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
