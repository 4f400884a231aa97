"""The four benchmark workloads, each a closed loop with one client.

All of them smooth the same problem: d = 2, theta = 2 on the box
[-1.5, 1.5]^2, data sin(x1 + x2) + 0.05 N(0, 1), rho = 1e-4.  A workload
is set up SETUP_REPEATS times from independent sub-seeds; every repetition
yields one shard (a CSV file, a data pool, a fitted model pair or a set of
ApproxParts) and the ops rotate over the shards, so each run averages over
several data sets instead of depending on one noise draw.

The library is always called through its module attributes
(``io.read_csv``, not a name bound here) so that the tracer's rebinding
sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bfsmooth import approx_smoother, assembly, exact_smoother, interpolant, io, study
from bfsmooth.errors import ContractError, SearchError, SolveError
from bfsmooth.kernels import KernelSpec
from bfsmooth.polyspace import PolyFrame

SETUP_REPEATS = 3
OP_ERRORS = (SolveError, ContractError, SearchError)

REGION = study.Region(a=[-1.5, -1.5], b=[1.5, 1.5])
PROBE_SHRINK = 0.05  # err_max is taken on the box shrunk by 5% of its width
FRAME = PolyFrame(d=2, theta=2)
TPS_LOG = KernelSpec("thinplate", theta=2, d=2, s=1.0)  # r^2 log r branch
TPS_POW = KernelSpec("thinplate", theta=2, d=2, s=1.5)  # r^3, ~5x cheaper
RHO = 1e-4
NOISE = 0.05
# rho_tune searches start four decades above the optimum (~1e-5 for this
# data) and run until the step factor is below rho_tol (err_tol = 0), so
# a search's length is set by the step schedule, not by the noise draw.
RHO0 = 0.1


@dataclass(frozen=True)
class Scale:
    """Problem sizes; FULL is the benchmark, TINY only checks the plumbing."""

    n_stream: int = 100_000  # approx_stream rows per CSV
    stream_grid: int = 20  # approx_stream centers per axis
    n_exact: int = 2000  # exact_dense data size; predict's exact model
    exact_pool: int = 64  # exact_dense data sets per shard
    n_model: int = 50_000  # predict's approx model; rho_tune data size
    model_grid: int = 30  # centers per axis for those two
    n_query: int = 1000  # points per predict request
    query_pool: int = 8  # predict requests per shard
    error_grid: int = 60  # rho_tune error grid per axis
    probes: int = 50  # err_max probe grid per axis
    err_tol: float = 0.1  # max |model - truth| an op may show: twice the noise sd


FULL = Scale()
TINY = Scale(
    n_stream=3000, stream_grid=6, n_exact=150, exact_pool=2, n_model=3000,
    model_grid=6, n_query=100, query_pool=2, error_grid=10, probes=10,
    err_tol=0.5,
)
SCALES = {"full": FULL, "tiny": TINY}


class OpFailure(Exception):
    """An op returned, but its output failed a correctness check."""


def truth(X: np.ndarray) -> np.ndarray:
    return np.sin(X.sum(axis=1))


def noisy_data(n: int, seed: tuple[int, ...]):
    X = study.gen_uniform(REGION, n, seed)
    noise = np.random.default_rng(seed + (1,)).standard_normal(n)
    return X, truth(X) + NOISE * noise


def center_grid(per_axis: int) -> np.ndarray:
    gs = approx_smoother.GridSpec(a=REGION.a, b=REGION.b, counts=(per_axis,) * 2)
    return approx_smoother.make_grid(gs, FRAME.theta)


class Workload:
    """Set-up shards plus op, check and count hooks for the runner."""

    name = ""
    items = ""  # what items_per_s counts on this workload
    cycle = 1  # ops after which per-op counts repeat

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.shards: list = []
        self.probes = REGION.probe_grid(scale.probes, PROBE_SHRINK)
        self.probe_truth = truth(self.probes)

    def shard(self, i: int):
        return self.shards[i % len(self.shards)]

    def build_shard(self, r: int):
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> float:
        """Raise OpFailure if op i's output is wrong; return its err_max."""
        raise NotImplementedError

    def items_done(self, i: int, out) -> int:
        raise NotImplementedError

    def entries_needed(self, i: int, out) -> int:
        """Kernel entries op i cannot do without (the waste-ratio base)."""
        raise NotImplementedError

    def check_constraint(self, model):
        vnorm = float(np.linalg.norm(model.v))
        violation = model.constraint_violation()
        if violation > interpolant.CONSTRAINT_RTOL * max(vnorm, 1.0):
            raise OpFailure(f"P_Z^T v = {violation:.3e} beyond tolerance")

    def check_model(self, model) -> float:
        self.check_constraint(model)
        fitted = interpolant.eval_model(model, self.probes)
        return self.check_error(fitted, self.probe_truth)

    def check_error(self, values, expected) -> float:
        values = np.asarray(values)
        if values.shape != expected.shape or not np.all(np.isfinite(values)):
            raise OpFailure(f"bad output shape {values.shape} or non-finite values")
        err = float(np.max(np.abs(values - expected)))
        if not err <= self.scale.err_tol:
            raise OpFailure(f"err_max {err:.3e} exceeds {self.scale.err_tol}")
        return err


class ApproxStream(Workload):
    """Large-N batch job: read a CSV, fit the Approximate smoother."""

    name = "approx_stream"
    items = "fit_points_per_s"

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.centers = center_grid(scale.stream_grid)

    def build_shard(self, r):
        X, y = noisy_data(self.scale.n_stream, (self.seed, 1, r))
        path = self.workdir / f"approx_stream-{r}.csv"
        np.savetxt(path, np.column_stack([X, y]), fmt="%.17g", delimiter=",",
                   header="x1,x2,y", comments="")
        return path, X, y

    def run(self, i):
        table = io.read_csv(self.shard(i)[0])
        model = approx_smoother.fit_approx(
            TPS_LOG, FRAME, table.X, table.y, self.centers, RHO
        )
        return table, model

    def check(self, i, out):
        table, model = out
        _, X, y = self.shard(i)
        if not (np.array_equal(table.X, X) and np.array_equal(table.y, y)):
            raise OpFailure("CSV round trip changed the data")
        return self.check_model(model)

    def items_done(self, i, out):
        return len(out[0].y)

    def entries_needed(self, i, out):
        n_c = len(self.centers)
        return len(out[0].y) * n_c + n_c * n_c


class ExactDense(Workload):
    """Dense O(N^3) path: Exact smoother fit plus its diagnostics."""

    name = "exact_dense"
    items = "fit_points_per_s"

    def build_shard(self, r):
        return [noisy_data(self.scale.n_exact, (self.seed, 2, r, k))
                for k in range(self.scale.exact_pool)]

    def data(self, i):
        pool = self.shard(i)
        return pool[(i // SETUP_REPEATS) % len(pool)]

    def run(self, i):
        X, y = self.data(i)
        model = exact_smoother.fit_exact(TPS_POW, FRAME, X, y, RHO)
        return model, exact_smoother.diagnostics(model, X, y)

    def check(self, i, out):
        model, diag = out
        if not diag.ok:
            raise OpFailure(
                f"diagnostics not ok: gaps {diag.gap_energy:.2e} "
                f"{diag.gap_seminorm:.2e} {diag.gap_functional:.2e} "
                f"{diag.gap_constraint:.2e}"
            )
        return self.check_model(model)

    def items_done(self, i, out):
        return self.scale.n_exact

    def entries_needed(self, i, out):
        return self.scale.n_exact**2


class Predict(Workload):
    """Read path: eval_model requests alternating an approx and an exact model."""

    name = "predict"
    items = "query_points_per_s"
    cycle = 2

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.centers = center_grid(scale.model_grid)
        inner = REGION.b - PROBE_SHRINK * (REGION.b - REGION.a)
        self.query_region = study.Region(a=-inner, b=inner)

    def build_shard(self, r):
        X, y = noisy_data(self.scale.n_model, (self.seed, 3, r, 0))
        approx = approx_smoother.fit_approx(TPS_LOG, FRAME, X, y, self.centers, RHO)
        X, y = noisy_data(self.scale.n_exact, (self.seed, 3, r, 1))
        exact = exact_smoother.fit_exact(TPS_POW, FRAME, X, y, RHO)
        queries = [study.gen_uniform(self.query_region, self.scale.n_query,
                                     (self.seed, 3, r, 2, k))
                   for k in range(self.scale.query_pool)]
        return (approx, exact), [(Q, truth(Q)) for Q in queries]

    def request(self, i):
        models, queries = self.shards[(i // 2) % len(self.shards)]
        Q, expected = queries[(i // (2 * len(self.shards))) % len(queries)]
        return models[i % 2], Q, expected

    def run(self, i):
        model, Q, _ = self.request(i)
        return interpolant.eval_model(model, Q)

    def check(self, i, out):
        model, _, expected = self.request(i)
        self.check_constraint(model)
        return self.check_error(out, expected)

    def items_done(self, i, out):
        return len(out)

    def entries_needed(self, i, out):
        model, Q, _ = self.request(i)
        return len(Q) * len(model.centers)


class RhoTune(Workload):
    """Model selection: rho_search over prebuilt ApproxParts, grid criterion."""

    name = "rho_tune"
    items = "rho_evals_per_s"
    cycle = SETUP_REPEATS

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        self.centers = center_grid(scale.model_grid)
        self.error_grid = approx_smoother.make_grid(
            approx_smoother.GridSpec(a=REGION.a, b=REGION.b,
                                     counts=(scale.error_grid,) * 2)
        )

    def fit(self, parts, rho):
        system = parts.system(rho)
        alpha, beta, _ = system.split(assembly.solve_block(system))
        return interpolant.FittedModel(
            spec=TPS_LOG, frame=FRAME, centers=self.centers, v=alpha, beta=beta,
            kind="approx_smoother", rho=rho,
        )

    def build_shard(self, r):
        X, y = noisy_data(self.scale.n_model, (self.seed, 4, r))
        parts = assembly.approx_parts(TPS_LOG, FRAME, X, y, self.centers)
        error_fn = study.grid_error_fn(
            lambda rho: self.fit(parts, rho),
            lambda p: float(np.sin(np.sum(p))),
            self.error_grid,
        )
        return parts, error_fn

    def run(self, i):
        return study.rho_search(self.shard(i)[1], RHO0, err_tol=0.0)

    def check(self, i, out):
        best, trace = out
        errors = [e for _, e in trace]
        best_errors = [e for r, e in trace if r == best]
        if not best_errors or min(best_errors) > min(errors):
            raise OpFailure(f"search returned rho={best:g}, not its best candidate")
        return self.check_model(self.fit(self.shard(i)[0], best))

    def items_done(self, i, out):
        return len(out[1])

    def entries_needed(self, i, out):
        return len(out[1]) * len(self.error_grid) * len(self.centers)


WORKLOADS = {w.name: w for w in (ApproxStream, ExactDense, Predict, RhoTune)}
