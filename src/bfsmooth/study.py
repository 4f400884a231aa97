"""Study harness: synthetic data, fill-distance measurement, the
empirical density law, convergence-order sweeps, the fit-time scaling
of the Approximate smoother and the rho search.

All experiments run on axis-aligned boxes.  Fill distance ("cavity
density") h_X = sup over the box of the distance to X is measured on a
regular probe grid; the probe resolution bounds the measurement error
because dist(., X) is 1-Lipschitz.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from ._blas import dot
from .assembly import _check_rho
from .errors import BfsmoothError, InputError, ParameterError, SearchError
from .interpolant import eval_model, fit_interpolant
from .exact_smoother import fit_exact, functional_value
from .approx_smoother import Region, fit_approx
from .kernels import KernelSpec, riesz_representer, semi_riesz
from .polyspace import PolyFrame, UnisolventFrame, _maybe_scalar, as_points

# Reference values of the 1-d empirical density law h_X ~ h1 * N^(-a).
DENSITY_H1 = 3.09
DENSITY_A = 0.81
# Probe grids as (most points, most per axis): a grid takes the most points
# per axis whose d-th power is within the total.  Fill distances use
# DENSITY_PROBES; convergence sweeps take the error on ERROR_PROBES over the
# box shrunk by BOUNDARY_SHRINK of its width on each side.
DENSITY_PROBES = (65_536, 10_000)
ERROR_PROBES = (10_000, 100)
BOUNDARY_SHRINK = 0.05
# rho_search's step-factor floor (factor - 1) and step limit.
RHO_TOL = 0.01
MAX_ITER = 60
SCALING_ROUNDS = 5  # fits per size in a scaling study


def gen_uniform(region: Region, N: int, seed) -> np.ndarray:
    """N i.i.d. uniform points in the box; reproducible for a fixed seed."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    rng = np.random.default_rng(seed)
    return region.a + rng.random((N, region.d)) * (region.b - region.a)


def cavity_density(region: Region, X, probe_per_axis: int) -> float:
    """Fill distance sup_omega dist(omega, X), probed on a regular grid."""
    if probe_per_axis < 2:
        raise ParameterError("probe_per_axis must be >= 2")
    X = as_points(X, region.d)
    if not len(X):
        raise InputError("X must be non-empty")
    probes = region.probe_grid(probe_per_axis)
    dist, _ = cKDTree(X).query(probes)
    return float(np.max(dist))


def _probes_per_axis(d: int, probes: tuple[int, int]) -> int:
    """The most points per axis n, at most probes[1], with n^d <= probes[0]."""
    total, most = probes
    return max(n for n in range(1, most + 1) if n**d <= total)


@dataclass(frozen=True)
class DensityFit:
    """Log-log OLS fit of fill distance against point count."""

    rows: tuple[tuple[int, float], ...]  # (N, h_X)
    h1: float
    a_exp: float
    r2: float


def exponential_sizes(n_sizes: int, maximum: int, multiplier: float):
    """Exponentially spaced sample sizes, each >= 2, ending at `maximum`.

    Raises ParameterError for n_sizes < 1, and when rounding leaves fewer
    than `n_sizes` distinct sizes.
    """
    if n_sizes < 1:
        raise ParameterError(f"number of sizes must be >= 1, got {n_sizes}")
    if not multiplier > 1:
        raise ParameterError(f"multiplier must be > 1, got {multiplier}")
    if maximum < 2:
        raise ParameterError(f"maximum size must be >= 2, got {maximum}")
    sizes = [maximum]
    for _ in range(n_sizes - 1):
        sizes.append(max(2, int(round(sizes[-1] / multiplier))))
    unique = sorted(set(sizes))
    if len(unique) < n_sizes:
        raise ParameterError(f"rounding leaves {len(unique)} distinct sizes of the "
                             f"{n_sizes} requested: {unique}")
    return unique


def _sizes(sizes, least: int) -> tuple[int, ...]:
    """Sample sizes as ints, strictly increasing, at least `least` of them."""
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < least or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"sizes must be strictly increasing, >= {least} of them")
    return sizes


def density_law(region: Region, sizes, seed) -> DensityFit:
    """Measure h_X for uniform samples of each size and fit h = h1 N^-a."""
    sizes = _sizes(sizes, 2)
    per_axis = _probes_per_axis(region.d, DENSITY_PROBES)
    rows = []
    for i, N in enumerate(sizes):
        X = gen_uniform(region, N, seed=(seed, i))
        rows.append((N, cavity_density(region, X, per_axis)))
    logN = np.log10([n for n, _ in rows])
    logh = np.log10([h for _, h in rows])
    slope, intercept = np.polyfit(logN, logh, 1)
    pred = slope * logN + intercept
    ss_res = float(np.sum((logh - pred) ** 2))
    ss_tot = float(np.sum((logh - np.mean(logh)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DensityFit(
        rows=tuple(rows), h1=float(10.0**intercept), a_exp=float(-slope), r2=r2
    )


@dataclass(frozen=True)
class RhoCoupling:
    """rho(h) of the optimal-order coupling: sqrt(rho) = C h^(eta_G + 1/(2a)).

    Only the exponent is theory-derived; the prefactor uses the density
    law constants (a_exp and DENSITY_H1) and a user amplitude standing in
    for unknowable problem constants.  h1 only scales the prefactor, so
    the amplitude covers any other h1.
    """

    eta_G: float
    a_exp: float = DENSITY_A
    amplitude: float = 1.0

    def __post_init__(self):
        for name in ("eta_G", "a_exp", "amplitude"):
            _check_rho(getattr(self, name), f"rho coupling {name}")

    def rho(self, h: float) -> float:
        prefactor = (
            self.amplitude
            * 2.0
            * self.a_exp
            * self.eta_G
            / DENSITY_H1 ** (1.0 / (2.0 * self.a_exp))
        )
        return (prefactor * h ** (self.eta_G + 1.0 / (2.0 * self.a_exp))) ** 2


@dataclass(frozen=True)
class SweepRow:
    N: int
    h: float
    err_max: float
    rho: float
    J_e: float
    ok: bool
    message: str = ""


@dataclass(frozen=True)
class StudyReport:
    """Rows of a convergence sweep plus the fitted log-log slope."""

    rows: tuple[SweepRow, ...]
    slope: float | None
    slope_flag: str = ""

    def to_csv(self) -> str:
        lines = ["N,h,err_max,rho,Je,slope_partial"]
        for i, row in enumerate(self.rows):
            partial = _fit_slope(self.rows[: i + 1])
            partial_txt = "" if partial is None else f"{partial:.6g}"
            lines.append(
                f"{row.N},{row.h:.10g},{row.err_max:.10g},{row.rho:.10g},"
                f"{row.J_e:.10g},{partial_txt}"
            )
        lines.extend(f"# N={row.N}: {' '.join(row.message.split())}"
                     for row in self.rows if not row.ok)
        return "\n".join(lines) + "\n"


_SLOPE_FLOOR = 1e-10  # errors at solver noise level carry no order signal


def _fit_slope(rows) -> float | None:
    pts = [(r.h, r.err_max) for r in rows if r.ok and r.err_max > _SLOPE_FLOOR]
    if len(pts) < 2:
        return None
    logh = np.log10([h for h, _ in pts])
    loge = np.log10([e for _, e in pts])
    return float(np.polyfit(logh, loge, 1)[0])


def convergence_sweep(
    spec: KernelSpec,
    frame: PolyFrame,
    region: Region,
    data_fn,
    sizes,
    seed=0,
    rho=None,
    centers=None,
) -> StudyReport:
    """Measure max-abs error on interior probes across increasing sizes.

    `data_fn` is called once per probe and data point with a (d,) array.
    The inputs pick the fit, named by its MODEL_KINDS value: given
    `centers`, an (N', d) array, approx_smoother; given `rho` only,
    exact_smoother; given neither, interpolant.  `rho` is a float (fixed)
    or a RhoCoupling (tied to the measured fill distance).  Row i fits
    gen_uniform(region, N_i, (seed, i)).  A fit that raises a library
    error (BfsmoothError) is recorded with its message and excluded from
    the slope; any other exception propagates.
    """
    if rho is None and centers is not None:
        raise ParameterError("centers require rho: the Approximate smoother smooths")
    coupled = isinstance(rho, RhoCoupling)
    if rho is not None and not coupled:
        _check_rho(rho)
    if centers is not None:  # a bad shape fails here, not in every row
        centers = as_points(centers, region.d)
    sizes = _sizes(sizes, 1)
    per_axis = _probes_per_axis(region.d, ERROR_PROBES)
    probes = region.probe_grid(per_axis, BOUNDARY_SHRINK)
    f_probe = _sample(data_fn, probes)
    rows = []
    for i, N in enumerate(sizes):
        X = gen_uniform(region, N, (seed, i))
        y = _sample(data_fn, X)
        h = cavity_density(region, X, _probes_per_axis(region.d, DENSITY_PROBES))
        rho_N = 0.0 if rho is None else rho.rho(h) if coupled else float(rho)
        try:
            if rho is None:
                model = fit_interpolant(spec, frame, X, y)
            elif centers is None:
                model = fit_exact(spec, frame, X, y, rho_N)
            else:
                model = fit_approx(spec, frame, X, y, centers, rho_N)
            err = float(np.max(np.abs(eval_model(model, probes) - f_probe)))
            J_e = functional_value(model, X, y, rho_N)
            rows.append(SweepRow(N=N, h=h, err_max=err, rho=rho_N, J_e=J_e, ok=True))
        except BfsmoothError as exc:  # recorded per-row, excluded from the slope
            rows.append(
                SweepRow(
                    N=N, h=h, err_max=float("nan"), rho=rho_N, J_e=float("nan"),
                    ok=False, message=str(exc),
                )
            )
    slope = _fit_slope(rows)
    flag = ""
    good = [r for r in rows if r.ok]
    if good and all(r.err_max <= _SLOPE_FLOOR * 100 for r in good):
        slope, flag = None, "errors at noise floor; slope undefined"
    elif slope is None:
        flag = "too few successful rows for a slope"
    return StudyReport(rows=tuple(rows), slope=slope, slope_flag=flag)


def scaling_study(spec: KernelSpec, frame: PolyFrame, region: Region, centers,
                  sizes, rho: float, seed) -> dict[int, list[float]]:
    """Wall seconds of SCALING_ROUNDS `fit_approx` calls per size N_i, on
    gen_uniform(region, N_i, (seed, i)) and y = sin(sum of x), timed
    round-robin so that a drift in host speed hits each size alike."""
    sizes = _sizes(sizes, 1)
    draws = [gen_uniform(region, N, (seed, i)) for i, N in enumerate(sizes)]
    data = [(X, np.sin(X.sum(axis=1))) for X in draws]
    times = {N: [] for N in sizes}
    for _ in range(SCALING_ROUNDS):
        for N, (X, y) in zip(sizes, data):
            start = time.perf_counter()
            fit_approx(spec, frame, X, y, centers, rho)
            times[N].append(time.perf_counter() - start)
    return times


class RepresenterData:
    """Data function f_d = sum_k beta_k R_{c_k} with a known seminorm.

    Such data functions double the smoother's convergence order; the
    exact squared seminorm beta^T S beta, with S the K x K semi-Riesz
    matrix S[j, k] = r_{c_k}(c_j), is computed once at construction.
    A call evaluates the (n, K) Riesz matrix at n points times beta.
    """

    def __init__(self, spec: KernelSpec, uf: UnisolventFrame, centers, beta):
        self.spec = spec
        self.uf = uf
        self.centers = as_points(centers, spec.d)
        self.beta = np.asarray(beta, dtype=float)
        if self.beta.shape != (len(self.centers),):
            raise ParameterError("beta must have one entry per center")
        S = semi_riesz(spec, uf, self.centers, self.centers)
        self.seminorm_sq = float(dot(dot(self.beta, S), self.beta))

    def __call__(self, x):
        R = riesz_representer(self.spec, self.uf, self.centers, x)
        return _maybe_scalar(dot(R, self.beta), x)


def _sample(data_fn, points) -> np.ndarray:
    """data_fn at each row of an (n, d) array, one call per point."""
    return np.array([float(data_fn(p)) for p in points])


def grid_error_fn(fitter, data_fn, error_grid):
    """delta_1: sum of squared smoother-vs-data-function errors on a grid.

    `error_grid` is an (n, d) array; a 1-d array is n points on a line
    (d = 1).  `data_fn` is called once per grid point with a (d,) array.
    The returned function takes rho as `residual_error_fn`'s does.
    """
    grid = np.asarray(error_grid, dtype=float)
    grid = grid.reshape(len(grid), -1)
    return residual_error_fn(fitter, grid, _sample(data_fn, grid))


def residual_error_fn(fitter, X, y):
    """delta_2: sum of squared residuals at the data points.

    The returned function takes a scalar rho, giving a float, or a 1-d
    array of k rho, giving k errors.  It calls `fitter` once per rho, in
    array order, and evaluates the k models at X in one `eval_model` call,
    so each kernel tile at X is built once per call, not once per rho.
    The fitted models must share spec, frame and centers.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (len(X),):
        raise ParameterError(f"y must have length {len(X)}, got {y.shape}")

    def err(rho):
        models = [fitter(float(r)) for r in np.atleast_1d(rho)]
        errors = np.array([float(np.sum((fitted - y) ** 2))
                           for fitted in eval_model(models, X)])
        return float(errors[0]) if np.ndim(rho) == 0 else errors

    return err


def rho_search(
    error_fn,
    rho0: float,
    factor: float = 10.0,
    err_tol: float = 0.01,
):
    """Minimize error_fn over rho by stepping up/down by a factor.

    At each step both rho * f and rho / f are tried and the best of the
    three is kept; once neither direction improves, the step factor f
    shrinks (square root).  Stops when the relative change of the error
    is at most err_tol (a tie stops even at err_tol = 0), when f is
    within RHO_TOL of 1, or after MAX_ITER steps.
    Every candidate lies on the lattice rho0 * factor**t: the exponent t
    moves by +-step, and step halves where f is square-rooted, so t is a
    dyadic rational held exactly.  A step back or a revisit therefore
    gives the same float, and each distinct rho is evaluated once (an
    exact float key) and its error reused.
    `error_fn` is called once per step that has a candidate not yet
    scored, with a 1-d float array of those candidates ([rho0] first, then
    up before down), and must return one error per rho in that order; a
    different count raises ParameterError.
    Returns (best_rho, trace) with trace entries (rho, error), one per
    scored candidate, repeats included.
    """
    _check_rho(rho0, "rho0")
    if not 1 < factor < math.inf:
        raise ParameterError(f"factor must be finite and > 1, got {factor}")
    trace: list[tuple[float, float]] = []
    scored: dict[float, float] = {}

    def evaluate(rhos: list[float]) -> list[float]:
        new = [rho for rho in dict.fromkeys(rhos) if rho not in scored]
        if new:
            values = error_fn(np.array(new, dtype=float))
            values = np.ravel(np.asarray(values, dtype=float))
            if len(values) != len(new):
                raise ParameterError(f"error_fn returned {len(values)} errors "
                                     f"for {len(new)} rho")
            fresh = dict(zip(new, values))
        for rho in rhos:
            if rho not in scored:
                value = float(fresh[rho])
                if not math.isfinite(value):
                    raise SearchError(f"non-finite error at rho={rho:g}", trace=trace)
                scored[rho] = value
            trace.append((rho, scored[rho]))
        return [scored[rho] for rho in rhos]

    def at(t: float) -> float:
        try:
            return rho0 * factor**t
        except OverflowError:
            return math.inf

    rho, (err,) = rho0, evaluate([rho0])
    t, step = 0.0, 1.0  # rho = rho0 * factor**t, f = factor**step
    for _ in range(MAX_ITER):
        up, down = at(t + step), at(t - step)
        err_up, err_down = evaluate([up, down])
        best_err, best_rho, best_t = min((err_up, up, t + step),
                                         (err_down, down, t - step))
        if best_err <= err:
            change = abs(err - best_err) / max(abs(err), 1e-300)
            rho, err, t = best_rho, best_err, best_t
            if change <= err_tol:
                break
        else:
            step /= 2
            if factor**step - 1.0 < RHO_TOL:
                break
    return rho, trace
