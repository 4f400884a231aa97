"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import scattered_points

import bfsmooth
from bfsmooth.approx_smoother import GridSpec, compare, fit_approx, make_grid
from bfsmooth.assembly import approx_parts, cpd_check
from bfsmooth.exact_smoother import diagnostics, fit_exact
from bfsmooth.interpolant import eval_model, fit_interpolant
from bfsmooth.kernels import (
    KernelSpec,
    predicted_orders,
    riesz_representer,
    semi_riesz,
)
from bfsmooth.polyspace import (
    PolyFrame,
    minimal_unisolvent_subset,
    unisolvency_matrix,
)
from bfsmooth.study import (
    Region,
    RepresenterData,
    RhoCoupling,
    convergence_sweep,
    density_law,
    exponential_sizes,
)

BOX1 = Region(a=-1.5, b=1.5)
TPS = KernelSpec("thinplate", theta=2, d=1, s=1.5)
_cache: dict = {}


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {name}{suffix}")
    assert ok, f"criterion {num} failed: {name}{suffix}"


def _all_kernels(theta: int, d: int):
    specs = [
        KernelSpec("thinplate", theta=theta, d=d, s=theta - 0.5),
        KernelSpec("shifted-tps", theta=theta, d=d, s=theta - 0.5, a=1.0),
        KernelSpec("imq", theta=theta, d=d, a=1.0),
        KernelSpec("gauss", theta=theta, d=d),
    ]
    if d > 1:
        specs.append(KernelSpec("mq", theta=theta, d=d, a=1.0))
    return specs


def test_criterion_1_polynomial_reproduction():
    worst = 0.0
    for d in (1, 2):
        for theta in (1, 2, 3):
            frame = PolyFrame(d, theta)
            rng = np.random.default_rng(d * 10 + theta)
            X = scattered_points(rng, frame.M + 15, d)
            probes = rng.uniform(-1.4, 1.4, (50, d))
            coeffs = rng.standard_normal(frame.M)
            y = frame.monomials(X) @ coeffs
            truth = frame.monomials(probes) @ coeffs
            for spec in _all_kernels(theta, d):
                models = [fit_interpolant(spec, frame, X, y)]
                models += [fit_exact(spec, frame, X, y, rho) for rho in (0.01, 1.0)]
                for model in models:
                    err = np.max(np.abs(eval_model(model, probes) - truth))
                    worst = max(worst, err)
    _report(1, "polynomial reproduction", worst <= 1e-7, f"max err {worst:.2e}")


def test_criterion_2_small_rho_limit():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng((2, trial))
        N = int(rng.integers(10, 51))
        X = scattered_points(rng, N)
        y = np.sin(2.0 * X[:, 0])
        frame = PolyFrame(1, 2)
        interp = fit_interpolant(TPS, frame, X, y)
        smoother = fit_exact(TPS, frame, X, y, rho=1e-10)
        probes = np.linspace(-1.4, 1.4, 50)
        a = eval_model(interp, probes)
        b = eval_model(smoother, probes)
        rel = np.max(np.abs(a - b)) / max(np.max(np.abs(a)), 1.0)
        worst = max(worst, rel)
    _report(2, "rho -> 0 limit equals interpolant", worst <= 1e-5,
            f"max rel diff {worst:.2e}")


def test_criterion_3_smoother_identities():
    worst_gap = 0.0
    trial = 0
    for theta, d in ((2, 1), (2, 2)):
        for spec in _all_kernels(theta, d):
            for _ in range(2):
                rng = np.random.default_rng((3, trial))
                trial += 1
                N = int(rng.integers(20, 61))
                X = scattered_points(rng, N, d)
                y = rng.standard_normal(N)
                frame = PolyFrame(d, theta)
                model = fit_exact(spec, frame, X, y, rho=float(rng.uniform(0.01, 1)))
                diag = diagnostics(model, X, y)
                worst_gap = max(
                    worst_gap, diag.gap_energy, diag.gap_seminorm,
                    diag.gap_functional, diag.gap_constraint,
                )
    _report(3, "Exact smoother energy identities", worst_gap <= 1e-8,
            f"{trial} instances, max gap {worst_gap:.2e}")


def test_criterion_4_exact_equals_approx():
    frame = PolyFrame(1, 2)
    worst_pt = 0.0
    for trial in range(10):
        rng = np.random.default_rng((4, trial))
        N = int(rng.integers(20, 41))
        X = scattered_points(rng, N)
        y = rng.standard_normal(N)
        rho = 0.1
        exact = fit_exact(TPS, frame, X, y, rho)
        approx = fit_approx(TPS, frame, X, y, X, rho)
        probes = np.linspace(-1.4, 1.4, 50)
        worst_pt = max(
            worst_pt,
            float(np.max(np.abs(eval_model(exact, probes) - eval_model(approx, probes)))),
        )
    worst_gap = 0.0
    for trial in range(5):
        rng = np.random.default_rng((40, trial))
        X = scattered_points(rng, 40)
        y = rng.standard_normal(40)
        rho = 0.1
        Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(9,)), frame.theta)
        exact = fit_exact(TPS, frame, X, y, rho)
        approx = fit_approx(TPS, frame, X, y, Xp, rho)
        record = compare(exact, approx, X, y, rho)
        worst_gap = max(worst_gap, abs(record.gap) / (1.0 + abs(record.J_e_approx)))
    ok = worst_pt <= 1e-7 and worst_gap <= 1e-7
    _report(4, "Exact = Approximate at X' = X, gap identity", ok,
            f"pointwise {worst_pt:.2e}, identity gap {worst_gap:.2e}")


def test_criterion_5_density_law():
    sizes = exponential_sizes(20, 5000, 1.3)
    exps, h1s = [], []
    for seed in range(5):
        fit = density_law(BOX1, sizes, seed=seed)
        exps.append(fit.a_exp)
        h1s.append(fit.h1)
    a_med = float(np.median(exps))
    h1_med = float(np.median(h1s))
    ok = 0.70 <= a_med <= 0.92 and 2.0 <= h1_med <= 4.5
    _report(5, "empirical density law", ok,
            f"median a_exp {a_med:.3f}, median h1 {h1_med:.3f}")


_SINE_SIZES = (50, 100, 200, 400, 800, 1600)


def test_criterion_6_interpolant_order():
    frame = PolyFrame(1, 2)
    report = convergence_sweep(
        TPS, frame, BOX1, lambda x: float(np.sin(np.sum(x))), _SINE_SIZES
    )
    predicted = predicted_orders(TPS).eta_G
    ok = report.slope is not None and report.slope >= predicted - 0.25
    _report(6, "interpolant convergence order", ok,
            f"slope {report.slope:.3f} vs predicted {predicted:.3f}")


def _coupled_sine_report():
    if "c7" not in _cache:
        coupling = RhoCoupling(eta_G=predicted_orders(TPS).eta_G, amplitude=100.0)
        _cache["c7"] = convergence_sweep(
            TPS, PolyFrame(1, 2), BOX1, lambda x: float(np.sin(np.sum(x))),
            _SINE_SIZES, rho=coupling,
        )
    return _cache["c7"]


def test_criterion_7_smoother_order_coupled_rho():
    report = _coupled_sine_report()
    predicted = predicted_orders(TPS).eta_G
    ok = report.slope is not None and abs(report.slope - predicted) <= 0.35
    _report(7, "Exact smoother order with coupled rho", ok,
            f"slope {report.slope:.3f} vs predicted {predicted:.3f}")


def test_criterion_8_doubled_order_for_representer_data():
    generic = _coupled_sine_report()
    rng = np.random.default_rng(8)
    frame = PolyFrame(1, 2)
    uf = minimal_unisolvent_subset(frame, rng.uniform(-1.5, 1.5, (8, 1)))
    f_d = RepresenterData(
        TPS, uf, rng.uniform(-1.2, 1.2, (5, 1)), rng.standard_normal(5)
    )
    coupling = RhoCoupling(eta_G=predicted_orders(TPS).eta_G, amplitude=100.0)
    special = convergence_sweep(TPS, frame, BOX1, f_d, _SINE_SIZES, rho=coupling)
    ok = (
        generic.slope is not None
        and special.slope is not None
        and special.slope >= generic.slope + 0.5
    )
    _report(8, "doubled order for representer data", ok,
            f"slope {special.slope:.3f} vs generic {generic.slope:.3f}")


_SCALING_SIZES = (10_000, 20_000, 40_000)
_SCALING_RHO = 1e-4


def test_criterion_9_scalability():
    frame = PolyFrame(1, 2)
    Xp = make_grid(GridSpec(a=-1.5, b=1.5, counts=(200,)), frame.theta)
    # The system's shape depends only on N, not on where X lies or on y.
    shapes = set()
    for N in _SCALING_SIZES:
        X = np.linspace(-1.5, 1.5, N)[:, None]
        parts = approx_parts(TPS, frame, X, np.zeros(N), Xp)
        shapes.add(parts.system(_SCALING_RHO).matrix.shape)
    # Time in a child process with one BLAS thread: OpenBLAS fixes its
    # thread count when it loads, and on a small shared host 2-thread GEMMs
    # of a few ms jitter by tens of percent, which swamps the per-chunk
    # work whose growth with N this criterion measures.
    src = str(Path(bfsmooth.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    child = subprocess.run(
        [sys.executable, "-m", "bfsmooth.cli", "--seed", "0", "study", "scaling",
         "--kernel", "thinplate:s=1.5", "--theta", "2",
         "--sizes", ",".join(map(str, _SCALING_SIZES)),
         "--grid=-1.5:1.5:200", "--rho", str(_SCALING_RHO)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    # CSV rows N,median_s,min_s after the header; comment lines start with #
    times = {int(row[0]): float(row[1]) for row in
             (line.split(",") for line in child.stdout.splitlines()[1:]
              if not line.startswith("#"))}
    r1 = times[20_000] / times[10_000]
    r2 = times[40_000] / times[20_000]
    expected = (200 + 2 * frame.M,) * 2
    ok = r1 <= 2.6 and r2 <= 2.6 and shapes == {expected}
    _report(9, "Approximate smoother scalability", ok,
            f"doubling ratios {r1:.2f}, {r2:.2f}; system {expected[0]} rows")


def test_criterion_10_cpd():
    ok = True
    for theta, d in ((2, 1), (2, 2)):
        frame = PolyFrame(d, theta)
        for spec in _all_kernels(theta, d):
            for trial in range(10):
                rng = np.random.default_rng((10, theta, d, trial))
                X = rng.uniform(-1.5, 1.5, (frame.M + 10, d))
                ok = ok and cpd_check(spec, frame, X, trials=100, seed=trial)
    _report(10, "conditional positive definiteness", ok)


def test_criterion_11_representer_laws():
    rng = np.random.default_rng(11)
    frame = PolyFrame(1, 2)
    uf = minimal_unisolvent_subset(frame, rng.uniform(-1.5, 1.5, (8, 1)))
    worst = 0.0
    for _ in range(100):
        x, y = rng.uniform(-1.5, 1.5, (2, 1))
        lx = uf.cardinal_values(x[None, :])[0]
        for j, a in enumerate(uf.points):
            worst = max(worst, abs(riesz_representer(TPS, uf, x, a) - lx[j]))
            worst = max(worst, abs(semi_riesz(TPS, uf, x, a)))
        worst = max(worst, max(0.0, -semi_riesz(TPS, uf, x, x)))
        worst = max(
            worst, abs(semi_riesz(TPS, uf, x, y) - semi_riesz(TPS, uf, y, x))
        )
    _report(11, "Riesz and semi-Riesz representer laws", worst <= 1e-10,
            f"max violation {worst:.2e}")
