import math

import numpy as np
import pytest

from bfsmooth import exact_smoother, interpolant
from bfsmooth.errors import ContractError, ParameterError
from bfsmooth.exact_smoother import (
    IDENTITY_RTOL,
    SmootherDiagnostics,
    diagnostics,
    fit_exact,
    functional_value,
)
from bfsmooth.interpolant import (
    FittedModel,
    eval_model,
    fit_interpolant,
    seminorm_sq,
)
from bfsmooth.kernels import KernelSpec
from bfsmooth.polyspace import (
    PolyFrame,
    lagrange_apply,
    minimal_unisolvent_subset,
    unisolvency_matrix,
)
from conftest import scattered_points

TPS = KernelSpec("thinplate", theta=2, d=1, s=1.5)
D2_SPECS = [
    KernelSpec("thinplate", theta=2, d=2, s=1.5),
    KernelSpec("shifted-tps", theta=2, d=2, s=1.0, a=1.0),
    KernelSpec("mq", theta=2, d=2, a=1.0),
    KernelSpec("imq", theta=2, d=2, a=1.0),
    KernelSpec("gauss", theta=2, d=2),
]


def _instance(seed, N=30, d=1, theta=2, spec=None):
    rng = np.random.default_rng(seed)
    X = scattered_points(rng, N, d)
    y = rng.standard_normal(N)
    frame = PolyFrame(d, theta)
    if spec is None:
        spec = KernelSpec("thinplate", theta=theta, d=d, s=theta - 0.5)
    return spec, frame, X, y


class TestFitExact:
    # 1e307 is finite, but lam = (2 pi)^(d/2) N rho overflows
    @pytest.mark.parametrize("rho", [0.0, -0.1, math.nan, math.inf, 1e307])
    def test_invalid_rho_rejected(self, rho):
        spec, frame, X, y = _instance(0)
        with pytest.raises(ParameterError):
            fit_exact(spec, frame, X, y, rho=rho)

    def test_constant_data(self):
        spec, frame, X, _ = _instance(1)
        model = fit_exact(spec, frame, X, np.full(len(X), 3.5), rho=0.7)
        probes = np.linspace(-1.4, 1.4, 50)
        np.testing.assert_allclose(eval_model(model, probes), 3.5, atol=1e-8)

    def test_polynomial_data_reproduced(self):
        spec, frame, X, _ = _instance(2)
        y = 2.0 - 0.5 * X[:, 0]
        for rho in (0.01, 1.0):
            model = fit_exact(spec, frame, X, y, rho=rho)
            probes = np.linspace(-1.4, 1.4, 50)
            np.testing.assert_allclose(
                eval_model(model, probes), 2.0 - 0.5 * probes, atol=1e-8
            )

    def test_small_rho_limit_is_interpolant(self):
        # Smooth data keeps the kernel coefficients moderate, so the O(rho)
        # departure from the interpolant is resolvable at rho = 1e-10.
        spec, frame, X, _ = _instance(3, N=25)
        y = np.sin(2.0 * X[:, 0])
        interp = fit_interpolant(spec, frame, X, y)
        smoother = fit_exact(spec, frame, X, y, rho=1e-10)
        probes = np.linspace(-1.4, 1.4, 50)
        a = eval_model(interp, probes)
        b = eval_model(smoother, probes)
        assert np.max(np.abs(a - b)) <= 1e-5 * max(np.max(np.abs(a)), 1.0)

    def test_constraint_satisfied(self):
        spec, frame, X, y = _instance(4)
        model = fit_exact(spec, frame, X, y, rho=0.2)
        assert model.constraint_violation() <= 1e-8 * max(np.linalg.norm(model.v), 1)


class TestDiagnostics:
    def test_random_instance_identities(self):
        spec, frame, X, y = _instance(5, N=30)
        model = fit_exact(spec, frame, X, y, rho=0.1)
        diag = diagnostics(model, X, y)
        assert diag.ok
        assert diag.gap_energy <= 1e-8
        assert diag.gap_seminorm <= 1e-8
        assert diag.gap_functional <= 1e-8
        assert diag.gap_constraint <= 1e-8
        assert diag.J_e == pytest.approx(
            model.rho * diag.seminorm_sq + diag.residual_ms, rel=1e-10
        )

    def test_polynomial_data_zero_functional(self):
        spec, frame, X, _ = _instance(6)
        y = 1.0 + X[:, 0]
        model = fit_exact(spec, frame, X, y, rho=0.5)
        diag = diagnostics(model, X, y)
        assert diag.ok
        assert diag.J_e <= 1e-10
        np.testing.assert_allclose(eval_model(model, X), y, atol=1e-8)

    def test_residual_orthogonal_to_polynomials(self):
        spec, frame, X, y = _instance(7, N=40)
        model = fit_exact(spec, frame, X, y, rho=0.3)
        P = unisolvency_matrix(frame, X)
        gap = P.T @ (eval_model(model, X) - y)
        assert np.linalg.norm(gap) <= 1e-8 * np.linalg.norm(y)

    def test_identities_across_kernels(self):
        for i, spec in enumerate(D2_SPECS):
            _, frame, X, y = _instance((8, i), N=25, d=2, theta=2, spec=spec)
            model = fit_exact(spec, frame, X, y, rho=0.1)
            assert diagnostics(model, X, y).ok, spec.label()

    def test_wrong_length_y_rejected(self):
        spec, frame, X, y = _instance(10)
        model = fit_exact(spec, frame, X, y, rho=0.1)
        with pytest.raises(ParameterError, match=f"y must have length {len(X)}"):
            diagnostics(model, X, y[:1])

    def test_functional_value_wrong_length_y_rejected(self):
        # y[:1] would broadcast against s at the ten points
        spec, frame, X, y = _instance(11, N=10)
        model = fit_exact(spec, frame, X, y, rho=0.1)
        with pytest.raises(ParameterError, match="y must have length 10"):
            functional_value(model, X, y[:1], 0.1)

    def test_interpolant_rejected(self):
        # the identities divide by N rho: rho = 0 is a parameter error, not
        # a ZeroDivisionError from the seminorm gap
        spec, frame, X, y = _instance(9)
        model = fit_interpolant(spec, frame, X, y)
        assert model.rho == 0.0
        with pytest.raises(ParameterError, match="rho > 0"):
            diagnostics(model, X, y)


GAP_FIELDS = ("gap_energy", "gap_seminorm", "gap_functional", "gap_constraint")


def _reference_diagnostics(model, X, y):
    # The eval_model + seminorm_sq formulation: s and |s|^2 each from their
    # own kernel matrix.
    y = np.asarray(y, dtype=float)
    s = np.atleast_1d(eval_model(model, X))
    sn = seminorm_sq(model)
    N, rho = len(y), model.rho
    residual_ms = float(np.mean((s - y) ** 2))
    J_e = rho * sn + residual_ms

    def rel(left, right):
        return abs(left - right) / max(abs(right), 1.0)

    P = unisolvency_matrix(model.frame, X)
    gaps = dict(
        gap_energy=rel(2 * rho * sn + residual_ms + float(np.mean(s**2)),
                       float(np.mean(y**2))),
        gap_seminorm=rel(sn, float(np.sum(s * (y - s))) / (N * rho)),
        gap_functional=rel(J_e, float(np.mean((y - s) * y))),
        gap_constraint=float(np.linalg.norm(P.T @ (s - y)))
        / max(np.linalg.norm(y), 1.0),
    )
    return SmootherDiagnostics(
        J_e=J_e, seminorm_sq=sn, residual_ms=residual_ms, **gaps,
        ok=all(g <= IDENTITY_RTOL for g in gaps.values()),
    )


def _assert_close_diagnostics(diag, reference):
    for name in ("seminorm_sq", "J_e", "residual_ms"):
        assert getattr(diag, name) == pytest.approx(getattr(reference, name), rel=1e-12)
    # The gaps are already relative to max(|right|, 1): a 1e-12 relative
    # change of their operands moves them by about 1e-12 at most.
    for name in GAP_FIELDS:
        want = getattr(reference, name)
        assert abs(getattr(diag, name) - want) <= 1e-12 * max(want, 1.0)
    assert diag.ok == reference.ok


def _kernel_setups():
    yield "thinplate-d1", TPS, _instance(20)[1:]
    for i, spec in enumerate(D2_SPECS):
        yield spec.label(), spec, _instance((21, i), N=25, d=2, spec=spec)[1:]


SETUPS = list(_kernel_setups())
SETUP_IDS = [setup[0] for setup in SETUPS]


class TestDiagnosticsOneKernelMatrix:
    @pytest.mark.parametrize("rho", [0.1, 1e-4])
    @pytest.mark.parametrize("label, spec, data", SETUPS, ids=SETUP_IDS)
    def test_center_set_matches_eval_model_route(self, monkeypatch, label, spec,
                                                 data, rho):
        frame, X, y = data
        model = fit_exact(spec, frame, X, y, rho)
        reference = _reference_diagnostics(model, X, y)
        built = []

        def counting(spec, Y, Z, _orig=exact_smoother.kernel_matrix):
            out = _orig(spec, Y, Z)
            built.append(out.shape)
            return out

        monkeypatch.setattr(exact_smoother, "kernel_matrix", counting)
        monkeypatch.setattr(interpolant, "kernel_matrix", counting)
        diag = diagnostics(model, X, y)
        assert built == [(len(X), len(X))]
        # same matrix, same evaluation order: bit for bit the reference
        assert diag == reference

    def test_gauss_small_rho_still_flagged(self):
        # A known weak spot: at rho = 1e-8 the seminorm identity of this
        # gauss fit misses IDENTITY_RTOL by about 15x.
        spec = KernelSpec("gauss", theta=2, d=1)
        _, frame, X, y = _instance((15, 29), N=40, spec=spec)
        model = fit_exact(spec, frame, X, y, rho=1e-8)
        diag = diagnostics(model, X, y)
        assert not diag.ok
        assert diag.gap_seminorm > 1e-8
        assert diag == _reference_diagnostics(model, X, y)

    def test_constraint_checked_on_both_routes(self):
        spec, frame, X, y = _instance(22)
        model = fit_exact(spec, frame, X, y, rho=0.1)
        broken = FittedModel(spec=spec, frame=frame, centers=X,
                             v=model.v + 1.0, beta=model.beta, rho=0.1,
                             kind="exact_smoother")
        with pytest.raises(ContractError):
            diagnostics(broken, X, y)
        with pytest.raises(ContractError):
            diagnostics(broken, X[::-1], y[::-1])

    @pytest.mark.parametrize("label, spec, data", SETUPS, ids=SETUP_IDS)
    def test_permuted_rows_take_general_route(self, monkeypatch, label, spec, data):
        frame, X, y = data
        model = fit_exact(spec, frame, X, y, rho=0.1)
        own = diagnostics(model, X, y)
        calls = []

        def counting(model, x, _orig=exact_smoother.eval_model):
            calls.append(len(x))
            return _orig(model, x)

        monkeypatch.setattr(exact_smoother, "eval_model", counting)
        perm = np.random.default_rng(0).permutation(len(X))
        permuted = diagnostics(model, X[perm], y[perm])
        assert calls == [len(X)]
        _assert_close_diagnostics(permuted, own)


class TestVariationalProperties:
    def test_functional_minimized(self):
        spec, frame, X, y = _instance(9, N=30)
        rho = 0.2
        smoother = fit_exact(spec, frame, X, y, rho)
        J_s = functional_value(smoother, X, y, rho)
        # competitor 1: the interpolant
        interp = fit_interpolant(spec, frame, X, y)
        assert J_s <= functional_value(interp, X, y, rho) + 1e-10
        # competitor 2: the zero model
        zero = FittedModel(
            spec=spec, frame=frame, centers=np.zeros((0, 1)), v=np.zeros(0),
            beta=np.zeros(frame.M),
        )
        assert J_s <= functional_value(zero, X, y, rho) + 1e-10
        # competitor 3: polynomial projection of the data through A
        uf = minimal_unisolvent_subset(frame, X)
        idx = [int(np.flatnonzero((X == a).all(axis=1))[0]) for a in uf.points]
        p_vals = uf.cardinal_values(X) @ y[idx]
        proj = fit_interpolant(spec, frame, X, p_vals)
        assert J_s <= functional_value(proj, X, y, rho) + 1e-10

    def test_contraction_on_sampled_model(self):
        # data drawn from a known member of the solution space: smoothing
        # never increases the seminorm
        spec, frame, Xc, yc = _instance(10, N=12)
        f_d = fit_interpolant(spec, frame, Xc, yc)
        rng = np.random.default_rng(1010)
        X = scattered_points(rng, 40)
        y = eval_model(f_d, X)
        for rho in (1e-3, 0.1, 10.0):
            model = fit_exact(spec, frame, X, y, rho)
            assert seminorm_sq(model) <= seminorm_sq(f_d) + 1e-8 * (
                1.0 + seminorm_sq(f_d)
            )

    def test_seminorm_monotone_in_rho(self):
        spec, frame, X, y = _instance(11, N=35)
        values = [
            seminorm_sq(fit_exact(spec, frame, X, y, rho))
            for rho in np.logspace(-6, 2, 9)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo + 1e-10 * (1.0 + lo)

    def test_non_polynomial_fixed_point_fails(self):
        # smoothing strictly changes any non-polynomial member of the space
        spec, frame, X, y = _instance(12, N=20)
        f_d = fit_interpolant(spec, frame, X, y)
        assert seminorm_sq(f_d) > 1e-6  # genuinely non-polynomial
        model = fit_exact(spec, frame, X, eval_model(f_d, X), rho=0.5)
        probes = np.linspace(-1.4, 1.4, 50)
        diff = np.max(np.abs(eval_model(model, probes) - eval_model(f_d, probes)))
        assert diff > 1e-6

    def test_polynomial_fixed_point_holds(self):
        spec, frame, X, _ = _instance(13)
        uf = minimal_unisolvent_subset(frame, X)
        samples = np.array([2.0, -1.0])  # p(x) = 2 - x through A
        y = uf.cardinal_values(X) @ samples
        model = fit_exact(spec, frame, X, y, rho=0.8)
        probes = np.linspace(-1.4, 1.4, 30)
        expected = lagrange_apply(uf, samples, probes)
        np.testing.assert_allclose(eval_model(model, probes), expected, atol=1e-8)
