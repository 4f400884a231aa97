"""Span tracing of bfsmooth's public functions, installed from outside the library.

Each traced name is wrapped once and the wrapper is rebound at every site
that holds the original: the defining module and every bfsmooth module
that imported it (for example ``assembly.kernel_matrix`` and
``interpolant.basis_matrix``).  Spans (name, start, end, parent span, op
id) are kept in memory and written out when the run ends.  Counts are
computed from the shapes of arguments and results, never measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

SETUP_OP = -1  # spans recorded while a set-up repetition runs
CHECK_OP = -2  # spans recorded while the benchmark verifies an op's output


def _approx_parts_counts(args, kwargs, parts):
    # Streaming accumulation of BBt, BP, PtP, By, Pty: 2 flops per
    # multiply-add, summed over all chunks of X.
    N, Np, M = parts.N, parts.G_pp.shape[0], parts.PtP.shape[0]
    return {"gemm_flops": 2 * N * (Np * Np + Np * M + M * M + Np + M)}


def _solve_counts(args, kwargs, sol):
    n = args[0].matrix.shape[0]
    return {"order": n, "lu_flops": 2 * n**3 // 3}


def _eval_counts(args, kwargs, values):
    return {"points": int(np.size(values))}


# (module, attribute path, counter computed from the call's arguments and result)
TRACED = (
    ("io", "read_csv", None),
    ("polyspace", "unisolvency_matrix", None),
    ("polyspace", "is_unisolvent", None),
    ("kernels", "kernel_matrix", lambda a, k, out: {"entries": int(out.size)}),
    ("assembly", "approx_parts", _approx_parts_counts),
    ("assembly", "solve_block", _solve_counts),
    ("assembly", "ApproxParts.system", None),
    ("interpolant", "eval_model", _eval_counts),
    ("interpolant", "seminorm_sq", None),
    ("exact_smoother", "fit_exact", None),
    ("exact_smoother", "diagnostics", lambda a, k, out: {"not_ok": int(not out.ok)}),
    ("approx_smoother", "fit_approx", None),
    ("study", "rho_search", lambda a, k, out: {"evals": len(out[1])}),
    ("study", "gen_uniform", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)
    error: str | None = None


class Tracer:
    """Records nested spans around the traced bfsmooth functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Rebind every traced name at each bfsmooth site that holds it."""
        sites = [m for n, m in sys.modules.items()
                 if n == "bfsmooth" or n.startswith("bfsmooth.")]
        for module_name, path, counter in TRACED:
            owner = importlib.import_module(f"bfsmooth.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:  # a method: rebind on its class
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", original, counter)
            holders = [owner] if outer else [
                m for m in sites if any(v is original for v in vars(m).values())
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# Per-layer metrics of a traced run: (name, unit, better).  Unless the unit
# says otherwise they are per measured op, averaged over whole cycles of
# the workload's op mix so that computed counts repeat exactly.
PER_LAYER = (
    ("io.read_csv.self_s", "s/op", "lower"),
    ("kernels.kernel_matrix.self_s", "s/op", "lower"),
    ("kernels.kernel_matrix.entries", "count/op", "lower"),
    ("kernels.kernel_matrix.ns_per_entry", "ns", "lower"),
    ("kernels.entries_per_op", "ratio", "lower"),
    ("polyspace.unisolvency_matrix.self_s", "s/op", "lower"),
    ("polyspace.is_unisolvent.self_s", "s/op", "lower"),
    ("assembly.approx_parts.self_s", "s/op", "lower"),
    ("assembly.approx_parts.gemm_flops", "flop/op", "lower"),
    ("assembly.approx_parts.gflops", "GFLOP/s", "higher"),
    ("assembly.solve_block.calls", "count/op", "lower"),
    ("assembly.solve_block.self_s", "s/op", "lower"),
    ("assembly.solve_block.order", "rows", "lower"),
    ("assembly.solve_block.lu_flops", "flop/op", "lower"),
    ("assembly.solve_block.failures", "count/op", "lower"),
    ("assembly.ApproxParts.system.self_s", "s/op", "lower"),
    ("interpolant.eval_model.calls", "count/op", "lower"),
    ("interpolant.eval_model.self_s", "s/op", "lower"),
    ("interpolant.eval_model.points", "count/op", "lower"),
    ("interpolant.seminorm_sq.self_s", "s/op", "lower"),
    ("exact_smoother.diagnostics.self_s", "s/op", "lower"),
    ("exact_smoother.diagnostics.not_ok", "count/op", "lower"),
    ("exact_smoother.fit_exact.self_s", "s/op", "lower"),
    ("approx_smoother.fit_approx.self_s", "s/op", "lower"),
    ("study.rho_search.self_s", "s/op", "lower"),
    ("study.rho_search.evals", "count/op", "lower"),
    ("study.gen_uniform.self_s", "s/setup", "lower"),
)


def layer_metrics(tracer: Tracer, ops: set[int], setups: int,
                  entries_needed: int) -> dict[str, float]:
    """Per-layer metrics from the spans of the given ops.

    study.gen_uniform only runs while setting up, so its self time is
    taken per set-up repetition instead of per op.
    """
    total: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    setup_self: dict[str, float] = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.op == SETUP_OP:
            setup_self[span.name] += own
        if span.op not in ops:
            continue
        t = total[span.name]
        t["calls"] += 1
        t["self_s"] += own
        t["failures"] += span.error == "SolveError"
        for key, value in span.counts.items():
            t[key] += value

    def ratio(a, b):
        return a / b if b else 0.0

    n = len(ops)
    kern = total["kernels.kernel_matrix"]
    parts = total["assembly.approx_parts"]
    solve = total["assembly.solve_block"]
    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, key = name.rpartition(".")
        out[name] = total[layer][key] / n if n else 0.0
    out.update({
        "kernels.kernel_matrix.ns_per_entry": 1e9 * ratio(kern["self_s"], kern["entries"]),
        "kernels.entries_per_op": ratio(kern["entries"], entries_needed),
        "assembly.approx_parts.gflops": 1e-9 * ratio(parts["gemm_flops"], parts["self_s"]),
        "assembly.solve_block.order": ratio(solve["order"], solve["calls"]),
        "study.gen_uniform.self_s": setup_self["study.gen_uniform"] / setups,
    })
    return out
